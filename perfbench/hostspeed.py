"""Host-speed sampling, so host-time metrics survive a drifting host.

On the 2-vCPU VM this benchmark was built on, the same pure-Python work
ran up to 2.3x slower from one half second to the next, with CPU time
tracking wall time and no steal.  A :class:`HostSpeed` sampler runs a
fixed pure-Python kernel (object allocation, attribute and dict traffic,
small-list queues: the operations the simulator is made of), about
0.3 ms of CPU, on a ``SIGALRM`` interval timer, so samples are spread
evenly over the wall time of whatever the process is doing.  A phase's
normalised time is its raw time, minus the sampler's own time, times
(:data:`REF_SECONDS` / the median kernel time sampled during the phase)
to the power :data:`SENSITIVITY`, so it still reads as seconds.

The kernel is deliberately not ``repro`` code: a change that speeds up
the simulator must not speed up the ruler.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List, Tuple

#: Kernel CPU time on the build host in its faster state (the median of
#: the samples taken while the benchmark was calibrated there).
REF_SECONDS = 0.0003

#: How strongly the workloads follow the kernel: when the kernel ran k
#: times slower, the simulator ran about k ** SENSITIVITY times slower.
#: Fitted on the build host over 10 figures and 19 replay passes while
#: the kernel ranged 0.31-0.70 ms (least-squares exponents 0.68 and
#: 0.51); with 1.0 the per-pass spread of ``wall_s`` was 16-18 %, with
#: 0.6 it was 3.5 % (figures) and 6.4 % (replay).
SENSITIVITY = 0.6

#: Seconds between samples.
INTERVAL = 0.025


class _Record:
    def __init__(self, a: int, b: int, kind: str) -> None:
        self.a = a
        self.b = b
        self.kind = kind
        self.done = False


def kernel(steps: int = 120) -> int:
    """The fixed reference work; returns a checksum so it cannot be
    skipped."""
    pool = [_Record(i, i * 7, "k%d" % (i % 13)) for i in range(steps)]
    index = {("r", i): record for i, record in enumerate(pool)}
    live: List[_Record] = []
    totals: dict = {}
    for cycle in range(steps * 4):
        record = index[("r", (cycle * 2654435761) % steps)]
        if record.a & 1:
            live.append(_Record(cycle, record.b, record.kind))
        if len(live) > 16:
            old = live.pop(0)
            totals[old.kind] = totals.get(old.kind, 0) + old.b
        record.done = not record.done
    return sum(totals.values())


def sample() -> float:
    """CPU seconds one run of :func:`kernel` takes now.

    Thread CPU time, not wall time: while pool workers keep both CPUs
    busy, a sample is often preempted, and the wait says nothing about
    how fast the host runs.  The collector is paused so a collection of
    the workload's heap that the kernel's allocations would trigger is
    paid by the workload, as it would have been without the sampler.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        kernel()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples :func:`kernel` every :data:`INTERVAL` seconds while on."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.running = False
        self._previous: object = None

    def _handle(self, signum: int, frame: object) -> None:
        self.samples.append(sample())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.running = True

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.running = False

    def mark(self) -> int:
        return len(self.samples)

    def window(self, mark: int) -> Tuple[float, float]:
        """(median kernel seconds, sampler seconds) since ``mark``; takes
        one sample now if the window was too short to hold any.  The
        median ignores the odd sample an interrupt stretched."""
        taken = self.samples[mark:]
        if not taken:
            return sample(), 0.0
        return statistics.median(taken), sum(taken)


def normalise(raw: float, kernel_s: float, overhead: float = 0.0) -> float:
    """Raw seconds, less the sampler's ``overhead``, rescaled from a host
    on which :func:`kernel` takes ``kernel_s`` to the reference host."""
    return max(raw - overhead, 0.0) * (REF_SECONDS / kernel_s) ** SENSITIVITY

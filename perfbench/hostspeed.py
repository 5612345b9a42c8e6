"""Calibration of times to the host's speed.

On a shared virtual machine the same code runs at different speeds from one
minute to the next.  A fixed reference kernel, timed throughout the run,
tracks that speed.  ``Sampler`` times the kernel every EVERY_S seconds from a
SIGALRM handler in the main thread, so samples fall inside long operations
too, and it keeps account of the time the kernel took so that callers can
subtract it from what they measure.  The kernel tracks the host only while the
program runs alone in one thread: program threads or child processes would
compete with it for the cores and inflate the factor.  So every sample also
notes the threads and children alive, and ``alone`` says whether the factor
can be trusted.  Dividing a time by ``factor`` (median
kernel CPU seconds / NOMINAL_S) gives the time at the speed where the kernel
costs NOMINAL_S.  The kernel is benchmark code: a change to the program does
not change it.
"""

from __future__ import annotations

import contextlib
import os
import resource
import signal
import statistics
import threading
import time

import numpy as np

# CPU seconds of one kernel call at this machine's typical speed: a 2-vCPU
# KVM guest, Intel Xeon, 2.1 GHz
NOMINAL_S = 0.016

_TABLE = np.random.default_rng(0).random((61, 30))


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _kernel() -> None:
    # interpreter work, like the simulator's per-step loop
    s = 0.0
    for i in range(40_000):
        s += (i * 0.5) % 7.0
    # small-array numpy work, like the solver's row-wise sort and cumsum
    for _ in range(200):
        order = np.argsort(_TABLE, axis=1, kind="stable")
        np.take_along_axis(_TABLE, order, axis=1).cumsum(axis=1)


def threads_and_children() -> tuple[int, int]:
    """Threads of this process and its live child processes."""
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:  # no procfs: Python threads only
        return threading.active_count(), 0
    children = 0
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                children += len(fh.read().split())
        except OSError:
            pass
    return len(tids), children


class Sampler:
    """Kernel samples over one run, and the CPU and wall seconds they took."""

    EVERY_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.cpu_spent = 0.0
        self.wall_spent = 0.0
        self.max_threads = 1
        self.max_children = 0

    def take(self, *_signal_args) -> None:
        w0, c0 = time.perf_counter(), _cpu()
        threads, children = threads_and_children()
        self.max_threads = max(self.max_threads, threads)
        self.max_children = max(self.max_children, children)
        k0 = _cpu()
        _kernel()
        cpu = _cpu() - k0
        self.samples.append(cpu)
        self.cpu_spent += _cpu() - c0
        self.wall_spent += time.perf_counter() - w0

    def burst(self, n: int = 10) -> None:
        for _ in range(n):
            self.take()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    @contextlib.contextmanager
    def held(self):
        """No sample starts inside the block; one that falls due runs after it."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @property
    def alone(self) -> bool:
        """No sample saw a second thread or a child process."""
        return self.max_threads == 1 and self.max_children == 0

    @property
    def factor(self) -> float:
        """Median kernel time relative to NOMINAL_S; above 1 the host is slower."""
        return statistics.median(self.samples) / NOMINAL_S

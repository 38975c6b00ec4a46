"""How fast the machine runs, from a fixed kernel timed all through a run.

On a shared host the same single-threaded code runs up to twice as fast in
a quiet minute as in a busy one: other tenants share the cores, caches and
memory bus, and the time is lost inside the process's own CPU time, so a
CPU clock does not help.  Such spells last longer than a run.  So while a
run measures, a profiling timer interrupts it about once per second of CPU
time to time this kernel, and the run's times are scaled by
``REFERENCE_S / mean kernel time``: the time on a machine where the kernel
takes ``REFERENCE_S``.  The mean, not the median: an op's duration adds up
the machine's slowness over the whole op, and so does a mean over samples
spread evenly in time.  The op timer subtracts the time spent sampling.

The kernel calls nothing from odmap, so a change to odmap cannot move it.
It mixes what the workloads do: numpy on 100k-element arrays, a sort and a
sparse product; interpreter loops over ints and a dict; and many numpy
calls on 7-point arrays, as in per-face quadrature.  On a 2-core x86 VM
whose load came and went, ten 25-second runs of a workload spread by
0.16-0.34 of their median (interquartile range) as measured and by
0.04-0.06 once scaled.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.06  # about the kernel's time on a 2-core x86 VM in a quiet spell
EVERY_S = 1.0  # CPU seconds between samples


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 20_000
        self._x = rng.random(100_000)
        self._a = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1), np.ones(n - 150)],
                           [-1, 0, 1, 150], format="csr")
        self._v = rng.random(n)
        self._pts = rng.random((7, 2))
        self._w = rng.random(7)
        self.samples: list = []
        self.stolen = 0.0  # seconds spent sampling, which an op timer subtracts
        self._busy = False

    def kernel(self) -> float:
        """Seconds the fixed kernel takes now."""
        x, v = self._x, self._v.copy()
        t0 = time.perf_counter()
        for _ in range(30):
            y = np.sqrt(x * x + 1.0)
            y.sort()
            v = self._a @ v
            v /= np.abs(v).max() + 1.0
        s = 0
        for i in range(150_000):
            s += (i * i) % 7
        d: dict = {}
        for i in range(50_000):
            d[i % 1000] = d.get(i % 1000, 0) + 1
        acc = 0.0
        for _ in range(4000):
            q = self._pts * 0.5 + 0.25
            acc += float(np.exp(q[:, 0]) @ self._w) + float(np.cos(q[:, 1]).sum())
        return time.perf_counter() - t0

    def sample(self):
        t0 = time.perf_counter()
        try:
            self.samples.append(self.kernel())
        finally:
            self.stolen += time.perf_counter() - t0

    def _on_timer(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    @contextmanager
    def sampling(self, every_s: float = EVERY_S):
        """Sample every ``every_s`` seconds of this process's CPU time."""
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, every_s, every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)


def factor(samples) -> float:
    """Multiply a time measured alongside ``samples`` by this to get it at reference speed."""
    return REFERENCE_S / statistics.fmean(samples)

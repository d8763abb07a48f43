"""Rescaling of measured times to a reference machine speed.

The benchmark's reference host (a 2-vCPU Xeon KVM guest) runs the same code
up to 20 % faster or slower from one second or minute to the next, and all
work slows together: over 295 one-second passes of ``decompose-batch``, the
pass time and the time of a fixed kernel taken just before each pass
correlated at 0.70, and the IQR/median of 20-second medians of pass time was
0.14 raw and 0.06 once each pass was divided by its kernel time.

``Speedometer`` times such a kernel (a pure-Python loop and a batch of small
LAPACK SVDs, the two kinds of work the workloads do) before and after each
pass and between ops, at most every ``EVERY_S`` seconds.  Each sample is the
median of ``_RUNS`` kernel runs, since one run jitters by 20 % itself.  A
pass's op times are multiplied by ``REFERENCE_S`` over the median of its
samples: the seconds they would have taken with the kernel at
``REFERENCE_S``.  The kernel runs no program code, so a change to the program
moves rescaled times as much as raw ones.

Only workloads where this helped are rescaled (``workloads.RESCALED``); the
others use ``Unscaled``.  Over ten seeds, rescaling cut the IQR/median of
``wall_s`` from 0.14 to 0.02 on ``decompose-batch`` and from 0.15 to 0.09 on
``brown-grid``.  It raised it on ``decompose-dense`` (0.075 to 0.127 with
one-run samples), whose n = 256 LAPACK calls run on two BLAS threads that
the single-threaded kernel does not track, and on ``verify-battery`` (0.12
to 0.36): the kernel jumps between two speeds 50 % apart while the battery's
time moves by 20 %, and one 15 s pass gets only the two samples at its ends.
"""
from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

REFERENCE_S = 0.017  # the kernel's typical time on the reference host
EVERY_S = 0.5
_LOOP = 60_000
_RUNS = 5
_SVD_SHAPE = (80, 32, 32)


class Speedometer:
    """Kernel timings taken between ops; see the module docstring."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = rng.standard_normal(_SVD_SHAPE) + 1j * rng.standard_normal(_SVD_SHAPE)
        self.samples: list = []
        self.sample()  # the first call pays LAPACK's lazy set-up
        self.samples.clear()

    def sample(self) -> None:
        runs = []
        for _ in range(_RUNS):
            t0 = time.perf_counter()
            acc = 0
            for i in range(_LOOP):
                acc += i * i % 7
            np.linalg.svd(self._mats, compute_uv=False)
            runs.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(runs))
        self._due = time.perf_counter() + EVERY_S

    @contextlib.contextmanager
    def between_ops(self):
        """Context for the work after an op (its output check): samples when due."""
        yield
        if time.perf_counter() >= self._due:
            self.sample()

    def factor(self, start: int) -> float:
        """``REFERENCE_S`` over the median kernel time of samples ``start`` onwards."""
        return REFERENCE_S / statistics.median(self.samples[start:])


class Unscaled:
    """The ``Speedometer`` interface for workloads reported in raw seconds."""

    samples: list = []

    def sample(self) -> None:
        pass

    between_ops = staticmethod(contextlib.nullcontext)

    def factor(self, start: int) -> float:
        return 1.0

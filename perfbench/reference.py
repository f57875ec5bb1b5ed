"""Reference kernel that measures how fast the machine runs right now.

The benchmark's timings are meant to compare two versions of the library,
but on a shared virtual machine the same code runs up to 1.8x slower for
stretches of seconds to minutes, often longer than a run.  So ``run.py``
times this fixed kernel between every two jobs and divides each job's time
by the mean of the kernel times just before and just after it.  That ratio
follows the code, not the machine: on a 300 s trace of the blowup suite
cut into 30 s windows, the sum over jobs of the median ratio spread 2 %
(interquartile range / median) where the sum of each job's fastest time
spread 24 %.

The kernel is the benchmark's own code, so no change to the library moves
it.  It mixes what the library spends its time on: scipy's scaled Bessel
functions and ``np.gradient`` on 257-point grids behind boolean masks,
called many times (Python overhead per call, as in the solver), and the
same functions on a 2048-point grid.

A ratio times ``NOMINAL_S`` reads as seconds at the machine's nominal
speed, the kernel's typical time on an unloaded 2-vCPU Xeon VM.
"""

import time

import numpy as np
from scipy.special import ive, kve

NOMINAL_S = 0.025

_X = np.linspace(0.0, 20.0, 257)
_WIDE = np.linspace(0.01, 20.0, 2048)


def kernel():
    acc = 0.0
    for i in range(60):
        pos = _X > 0
        xp = _X[pos]
        a = np.ones_like(_X)
        a[pos] = xp ** -0.75 * ive(1.5 + 0.5 * (i % 3), xp)
        b = np.ones_like(_X)
        b[pos] = xp ** -0.75 * kve(0.5 + 0.5 * (i % 3), xp)
        acc += float(np.sum(np.gradient(a * b, _X)))
    for _ in range(10):
        acc += float(np.cumsum(np.gradient(ive(2.5, _WIDE) * np.exp(-_WIDE), _WIDE))[-1])
    return acc


def timed():
    """Seconds one call of ``kernel`` takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start

"""Reference kernels that time the host, never cantorkit.

A shared host runs slower in some minutes than in others, by up to a third
for minutes at a time.  A library workload names the kernel whose cost
resembles its own, and its end-to-end timings are scaled by the kernel's time on the
reference host over its time in the same run.  A slow phase of the host then
cancels out, while a change to cantorkit, which the kernels never call, does
not.  Each kernel returns its own wall time in seconds.
"""

import time

import numpy as np


def python_objects():
    """Tuple and dict churn plus small numpy calls, like the wavelet path."""
    start = time.perf_counter()
    for _ in range(10):
        table = {}
        for i in range(10_000):
            table[(i, i & 7)] = (i,)
    a, idx = np.zeros(64), np.arange(32)
    for _ in range(10_000):
        a[idx] * 2.0
    return time.perf_counter() - start


def gathers():
    """Random gathers and a bincount over 8 MB arrays, like the transfer sweep."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    perm = rng.permutation(1 << 19)
    values = rng.standard_normal(1 << 19) + 0j
    for _ in range(4):
        values = values[perm]
    np.bincount(perm & 4095, weights=values.real, minlength=4096)
    return time.perf_counter() - start


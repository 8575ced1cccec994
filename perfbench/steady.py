"""Steady measuring conditions for the benchmark, and its machine-speed probe.

Import this module first, before numpy.  It fixes two things in the
benchmark's own process:

- BLAS and OpenMP pools run one thread.  On a machine of two shared
  cores a second BLAS thread waits on the scheduler, and its timings
  measure that wait.
- glibc's mmap threshold is fixed at its default of 128 KiB.  Left
  dynamic, glibc raises it after a large block is freed, and later large
  blocks then stay in the heap after they are freed.  Whether that
  happens depends on allocation order, so the peak resident set of one
  workload jumped between two values 16% apart from seed to seed.

The CPUs the benchmark runs on are shared, and their speed swings by up
to 2 times over seconds and over whole runs (README.md).  ``probe``
times a fixed piece of work that runs no program code: a pure-Python
dict loop, small numpy products and small file reads, the kinds of work
the program does.  ``run.py`` brackets every timed sample with probes
and scales the sample by their mean over ``REFERENCE_SECONDS``.  A rate
then reads as it would at one fixed machine speed: a slower program
lowers it, a slower machine slows the probe as well and cancels out.
"""

import ctypes
import ctypes.util
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

M_MMAP_THRESHOLD = -3  # mallopt parameter, from glibc's malloc.h
MMAP_THRESHOLD_BYTES = 128 * 1024
_libc = ctypes.CDLL(ctypes.util.find_library("c"))
# 1 on success; 0 or absent where the C library is not glibc.
MMAP_THRESHOLD_FIXED = bool(hasattr(_libc, "mallopt")
                            and _libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES))

import time  # noqa: E402

import numpy as np  # noqa: E402

# Probe time the benchmark's timings are scaled to: the probe's median on
# the reference machine (README.md), so scaled figures stay near raw ones.
REFERENCE_SECONDS = 0.005

_MATRIX = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)


def probe() -> float:
    """Wall seconds of the fixed probe work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(10000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) ^ i
    a = _MATRIX
    for _ in range(10):
        a = np.tanh(a @ _MATRIX * 0.05)
    for _ in range(100):  # open, read and close, as the commands do with their CSVs
        with open(__file__, "rb") as fh:
            fh.read()
    return time.perf_counter() - start


probe()  # first-call costs (allocation, BLAS start-up) stay out of timings

"""The machine-speed index: a fixed piece of the benchmark's own work, timed
between the invocations of a run.

On a shared VM the same invocation runs 20-40% slower or faster for minutes
at a time, and every invocation of a run moves together. The index is the
median time of this work over the run divided by NOMINAL_S, its median on
the VM where the benchmark was set up; the end-to-end times are divided by
it, and the rates multiplied. The work uses no drpredict code, so a change
to the program cannot move it. It has the three kinds of work the program's
invocations spend their time on: an interpreter loop (CSV parsing, the
scalar solver), numpy over an array far larger than the CPU caches (the
KDE), and starting a Python process.
"""

import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 0.05  # one sample's median on a 2-vCPU VM, Python 3.11, numpy 2.4
_rng = np.random.default_rng(12345)
_LOOP = _rng.standard_normal(300_000).tolist()
_BIG = _rng.standard_normal(2_000_000)


def sample():
    """Seconds taken by one pass of the fixed work."""
    start = time.perf_counter()
    total = 0.0
    for v in _LOOP:
        total += v * v
    np.exp(-0.5 * _BIG * _BIG).sum()
    subprocess.run([sys.executable, "-S", "-c", "pass"], stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start

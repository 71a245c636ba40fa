"""Host speed, measured with a fixed calibration kernel.

The benchmark runs on shared machines whose speed drifts by up to a factor
of two over minutes, for reasons no process inside can see or control: the
same fixed CPU loop, timed by wall clock or by CPU time, varies as much.
Every timed op is therefore bracketed by runs of a kernel that does not
touch squeezelab, and its time is scaled by REFERENCE_S over the mean of the
two kernel times around it.  An adjusted time is what the op would take on
a host where the kernel takes REFERENCE_S; a change to the program moves it
in full, a change of host speed during the run mostly cancels.

The kernel mixes the three kinds of work the ops do: starting a Python
process, an interpreter loop, and small long-double complex matrix
products, which numpy runs in its own loops, as the Fock builds do.  Over
five minutes of `figure` ops on a 2-core VM, the median op time of 20 s
windows spread by 0.19 (interquartile range over median) and the adjusted
time by 0.04.
"""

import subprocess
import sys
import time

import numpy as np

# About the kernel time on a 2-core x86-64 VM.  It only sets the scale of
# the adjusted times, so it must not change between two measurements that
# are compared.
REFERENCE_S = 0.1

_MATRIX = np.random.default_rng(0).random((64, 64)).astype(np.clongdouble)


def kernel_s():
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    total = 0
    for i in range(400_000):
        total += i * i % 7
    product = _MATRIX
    for _ in range(8):
        product = product @ _MATRIX
    return time.perf_counter() - start


class HostSpeed:
    """Scales op times by the kernel runs before and after each op."""

    def __init__(self):
        self._before = kernel_s()
        self.kernel_times = [self._before]

    def adjust(self, seconds):
        """Call right after an op that took `seconds`; returns its adjusted time."""
        after = kernel_s()
        self.kernel_times.append(after)
        scale = REFERENCE_S / (0.5 * (self._before + after))
        self._before = after
        return seconds * scale

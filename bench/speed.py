"""Host-speed calibration: a fixed kernel timed alongside the tasks.

On a shared host the speed of one vCPU changes by up to 1.9x, within
seconds, in process CPU time as much as in wall time: the vCPU's physical
core is shared with other tenants. Such a change shows in every figure of a
run and in no way between runs of the same code. So the benchmark times this
kernel, which resembles softarm's work (interpreter loops, trigonometry,
3x3 products and a small SVD in numpy) but calls no softarm code, right
before and right after each task, and scales the task's time by
``REF_S / kernel time``. Scaled times read as on a host where the kernel
takes ``REF_S``; a change to softarm moves them as much as the raw times,
a change of host speed mostly not.

On the 2-vCPU shared VM the benchmark was tuned on, ten 30-second runs per
workload spread (quartile distance over median) 0.07-0.32 in raw timings
and 0.003-0.10 in scaled ones.
"""

import math
import statistics
import time

import numpy as np

#: Kernel time a scaled time refers to: about this kernel's time in the
#: quiet periods of the 2-vCPU Xeon VM the benchmark was tuned on (it took
#: about 300 us there in busy ones).
REF_S = 150e-6
#: Kernel calls per sample; the sample is their median, which follows the
#: speed a task sees better than their minimum does.
CALLS = 9
#: Least time between two samples within a pass.
EVERY_S = 0.01

_M = np.random.default_rng(0).standard_normal((6, 9))


def kernel() -> float:
    a = np.eye(3)
    v = np.array([0.1, 0.2, 0.3])
    total = 0.0
    for i in range(24):
        c, s = math.cos(i * 0.1), math.sin(i * 0.1)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        a = a @ r
        v = a @ v + v
        total += float(v[0])
    u, sv, vt = np.linalg.svd(_M, full_matrices=False)
    x = (vt.T * (1.0 / sv)) @ u.T
    w = np.cross(x[:3, 0], x[3:6, 1])
    return total + float(np.linalg.norm(w))


def sample() -> float:
    """Seconds per kernel call now: the median of CALLS timed calls."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up() -> None:
    """A few untimed calls, so that the first sample is not a cold one."""
    for _ in range(20):
        kernel()

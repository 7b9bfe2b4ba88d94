"""Host speed: a fixed piece of work, timed between campaign runs.

The benchmark runs on CPUs shared with other machines' work.  On the
2-vCPU Xeon it was tuned on, the same campaign's wall time moved by up
to 1.8x over a few minutes, in phases lasting tens of seconds to
minutes -- longer than a benchmark run, so no amount of repeating within
a run averages them out.  CPU time moved with wall time, so the
slowdown is in how fast the host executes, not in scheduling.

:func:`sample` times a frozen mix of the kinds of work the program does
(pure-Python arithmetic and dict access, numpy calls on small arrays,
image-sized array arithmetic and a float32 matrix product of a
convolution's shape).  It runs no program code, so a change to the
program never changes it.  Taken before and after every timed campaign
run, it gives that run's *host factor* (:func:`factor`).  Dividing a
run's times by its host factor reports them at the reference host speed.

The sample is not slowed exactly as much as a campaign is: on the
tuning host, log campaign time rose by 0.1 to 1.3 times as much as log
sample time, depending on the workload and on whether repeats within a
run or whole runs were compared.  The factor is therefore the sample
time's ratio to :data:`REFERENCE_S` raised to :data:`ELASTICITY`
(chosen on sets of five seeds, where 0.5 did better than 1 on two of the
three workloads).  In two later sets of ten seeds per workload, the
spread (interquartile range over median) of ``episodes_per_s`` went,
uncorrected -> corrected, from 0.22 -> 0.13 and 0.17 -> 0.17 on
ilcnn-mux, 0.09 -> 0.05 and 0.21 -> 0.13 on procedural-grammar, and
0.12 -> 0.09 and 0.07 -> 0.07 on queue-short.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["ELASTICITY", "REFERENCE_S", "factor", "sample"]

#: Typical :func:`sample` time on the 2-vCPU Xeon the benchmark was
#: tuned on; a host factor of 1 means that speed.
REFERENCE_S = 0.25
#: How much of the sample's slowdown a campaign's times are taken to share.
ELASTICITY = 0.5

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random(300)
_IMAGE = _RNG.random((96, 128, 3), dtype=np.float32)
_COLS = _RNG.random((256, 576), dtype=np.float32)
_KERNEL = _RNG.random((576, 64), dtype=np.float32)


def _python() -> float:
    table: dict[int, float] = {}
    for i in range(280000):
        key = i & 1023
        table[key] = table.get(key, 0.0) * 0.5 + (i * 3 % 7)
    return table[7]


def _small_arrays() -> float:
    x = _SMALL
    for _ in range(10000):
        x = np.clip(x * 1.0001 + 0.1, 0.0, 10.0)
    return float(x[0])


def _image() -> float:
    img = _IMAGE
    for _ in range(2000):
        img = np.minimum(img * 0.9 + 0.05, 1.0)
    return float(img[0, 0, 0])


def _matmul() -> float:
    out = 0.0
    for _ in range(370):
        out += float((_COLS @ _KERNEL)[0, 0])
    return out


def factor(*samples: float) -> float:
    """Host factor of work done between host ``samples`` (seconds)."""
    return (sum(samples) / len(samples) / REFERENCE_S) ** ELASTICITY


def sample() -> float:
    """Seconds the fixed mix of work takes now."""
    start = time.perf_counter()
    _python()
    _small_arrays()
    _image()
    _matmul()
    return time.perf_counter() - start

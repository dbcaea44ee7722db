"""Host-speed calibration.

The benchmark host is shared and its speed drifts by tens of percent over
minutes.  A fixed reference, which the program does not change, is timed
next to every timed region; a timing is then reported at the reference host
speed:

    normalized = measured * REFERENCE_S / reference time measured around it

In-process regions are referred to a kernel that mixes what wellpi spends
its time on: Python calls, float arithmetic, 15-point numpy rules on small
arrays, small lists and ``math.fsum``.  Interpreter start-up is referred to
a fresh interpreter that only imports numpy, the start-up every wellpi
command pays before any wellpi code runs.  A host that runs the references
at the reference speed reports raw seconds.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Typical times on a shared 2-core x86-64 VM (Python 3.11, numpy 2.4):
# there, reference seconds are about raw seconds.
#: The kernel below.
REFERENCE_S = 3.0e-3
#: A fresh interpreter running START_CODE.
REFERENCE_START_S = 0.15
START_CODE = "import numpy"

_NODES = np.linspace(-0.99, 0.99, 15)
_WEIGHTS = np.full(15, 2.0 / 15.0)


def _kernel() -> float:
    total = 0.0
    for k in range(150):
        a = 0.01 * k
        width = 0.125
        panels = []
        for j in range(4):
            center = a + width * (j + 0.5)
            x = center + 0.5 * width * _NODES
            fx = np.exp(-x * x) * (1.0 + x)
            panels.append(0.5 * width * float(_WEIGHTS @ fx))
        total += math.fsum(panels) + math.sqrt(a + 1.0)
    return total


def kernel_seconds(repeats: int = 5) -> float:
    """Mean of `repeats` back-to-back timings of the kernel."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return (time.perf_counter() - t0) / repeats

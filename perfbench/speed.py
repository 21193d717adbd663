"""Machine-speed calibration for a shared, noisy host.

On a machine shared with other tenants, the same code runs up to ~40%
slower for minutes at a time. Every time the worker reports is therefore
scaled to a reference speed: a fixed calibration loop runs next to the
measured code, and a time t measured while the loop took c seconds is
reported as t * REFERENCE_CALIBRATION_S / c. The loop mixes what `bqnet`
spends its time on: building and probing tuple-keyed dicts in Python,
small NumPy calls, and a pass over multi-megabyte arrays, as in
simulation. Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import itertools
import statistics
import time

#: Median time of ``calibrate()`` in a fresh process on the machine the
#: benchmark was built on (2 vCPUs, Python 3.11, NumPy 2.4); scaled times
#: are seconds at that speed.
REFERENCE_CALIBRATION_S = 0.009


def calibrate():
    """Run the fixed calibration loop once; return its wall time."""
    import numpy as np
    start = time.perf_counter()
    index = {v: i for i, v in enumerate(itertools.product(range(14), repeat=3))}
    acc = 0
    for v in index:
        acc += index[v[::-1]]
    small = np.linspace(0.0, 1.0, 64)
    for _ in range(800):
        acc += float(np.exp(small).sum())
    large = np.linspace(0.0, 1.0, 1 << 19)
    acc += float(np.cumsum(large)[-1])
    return time.perf_counter() - start


def scale(samples):
    """Factor that turns times measured next to ``samples`` into reference seconds."""
    return REFERENCE_CALIBRATION_S / statistics.median(samples)

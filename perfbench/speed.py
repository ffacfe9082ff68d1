"""The machine's speed, measured between operations.

This machine's other tenants slow everything down, for seconds to tens of
seconds at a time. Identical rounds of `split` took from 234 to 623 ms
within one minute, and runs a minute apart differed by 2x. No statistic
over a 25 s run removes that. So the runner times a fixed numpy kernel,
which calls nothing in zpreal, right before every operation, and reports
each operation's time scaled to the speed at which this kernel takes
REFERENCE_MS:

    reported = measured * REFERENCE_MS / (kernel time around the operation)

Over the same minute, most scaled round times of `split` stayed within
±5% of their median (extremes -10% and +15%). The kernel is fixed, so a
change to zpreal moves the measured times and not the scale.
"""

import statistics
import time

import numpy as np

# The kernel's time on this machine (2-core Xeon VM at 2.1 GHz, Python
# 3.11, numpy 2.4) when the machine is in its fast state.
REFERENCE_MS = 0.030
WINDOW = 10                 # operations on each side of the local median

_A = (np.arange(64).reshape(8, 8) + 1j) / 64.0


def kernel_ms() -> float:
    """Time one pass of the kernel: small complex matmuls driven from a
    Python loop, the same mix of work as zpreal's per-point code."""
    t0 = time.perf_counter()
    acc = 0j
    for i in range(12):
        m = _A @ _A
        acc += m[i % 8, 0] / (i + 1.5)
    return (time.perf_counter() - t0) * 1e3


def factors(kernel_times: list) -> list:
    """Scale factor for each operation of a round, from the median kernel
    time of the operations within WINDOW of it."""
    n = len(kernel_times)
    return [REFERENCE_MS / statistics.median(
                kernel_times[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(n)]


def factor_now(samples: int = 200) -> float:
    """Scale factor for work done just now, such as the set-up."""
    return REFERENCE_MS / statistics.median(kernel_ms() for _ in range(samples))

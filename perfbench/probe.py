"""CPU speed probe: times a fixed small kernel every PERIOD_S seconds.

``run.py`` starts this process pinned to the vCPU its benchmark children
run on, so the probe sees the same contention they do: on a shared host
the other hyperthread of a core is busy in bursts of seconds, and while
it is, every instruction on the vCPU runs up to ~50% slower.  The probe
sleeps, wakes, runs the kernel (about 1 ms) and appends one line,
``<start on CLOCK_MONOTONIC> <thread CPU seconds of the kernel>``, to the
file named by its only argument, until it is terminated.

Usage: python3 perfbench/probe.py SAMPLES_FILE
"""

import os
import signal
import sys
import time

PERIOD_S = 0.05

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402  (after the BLAS thread count is fixed)


def kernel(x, y):
    """Small least-squares solves and dict updates: numpy calls and bytecode."""
    for _ in range(20):
        np.linalg.lstsq(x, y, rcond=None)
    counts = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return counts


def main(path: str) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((60, 4)), rng.standard_normal(60)
    kernel(x, y)
    with open(path, "w", buffering=1) as out:
        while True:
            time.sleep(PERIOD_S)
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            cpu = time.thread_time()
            kernel(x, y)
            out.write(f"{start:.6f} {time.thread_time() - cpu:.9f}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

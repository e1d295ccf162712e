"""The host-speed calibration loop, kept free of imports.

A shared host runs this benchmark's processes faster or slower from one
second to the next. `calibrate` times a fixed pure-Python loop that runs no
atomlaser code, so it reads the same on every commit and follows only the
speed the host gives the process at that moment. run.py scales the times
of a run by CAL_REF_S over the median of the calibration times taken in it.
The module imports nothing, so a fresh interpreter can calibrate before it
imports `atomlaser` without importing anything on the package's behalf.
"""

import time

# loop iterations; about 10 ms on a 2.1 GHz Xeon
CAL_ITERS = 150_000
# the loop's time on the host the benchmark was built on, a 2-vCPU
# 2.1 GHz Xeon VM: scaled times read as seconds at that host's speed
CAL_REF_S = 0.010


def calibrate():
    """Seconds of the calibration loop, the median of three rounds."""
    rounds = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_ITERS):
            acc += i * i
        rounds.append(time.perf_counter() - t0)
    return sorted(rounds)[1]

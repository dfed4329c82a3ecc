"""Calibrations that gauge how fast the machine runs Python code, and starts
processes, at the moment a piece is timed.

On a shared host the speed of a core swings by a third or more within a
minute, and it moves bzk's timings and this loop's alike.  The benchmark
therefore times the loop between the pieces it times, and run.py scales each
piece by CAL_REF_S / (the median of the two samples before it and the two
after it): seconds at a fixed reference speed.  Set-up samples, which are
mostly process start and imports, are scaled the same way by the time of a
fresh interpreter that imports numpy.  README.md ("Calibrated time") gives
the measurements behind this.
"""

import gc
import statistics
import subprocess
import sys
import time

LOOP_N = 50_000
PASSES = 3
# the median of about 350 calibrate() samples, taken between verify processes
# on the 2-core machine of README.md's figures
CAL_REF_S = 0.009
# the median of about 280 startup_calibrate() samples on the same machine
STARTUP_REF_S = 0.177
STARTUP_TIMEOUT_S = 60.0


def _pass():
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(LOOP_N):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    sorted(table.values())
    return time.perf_counter() - start


def calibrate():
    """Fastest of PASSES passes of the fixed loop, in wall seconds, with the
    garbage collector off so that bzk's heap does not weigh on it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_pass() for _ in range(PASSES))
    finally:
        if enabled:
            gc.enable()


def startup_calibrate():
    """Wall seconds of a fresh interpreter that imports numpy, the bulk of
    importing bzk, from its start to its exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL,
                   check=True, timeout=STARTUP_TIMEOUT_S)
    return time.perf_counter() - start


def around(samples, tag):
    """Median of the two samples before and the two after a timed piece
    that ended when `samples` held `tag` of them (fewer at either end)."""
    return statistics.median(samples[max(0, tag - 2):tag + 2])


def scaled(seconds, cal_s, ref_s=CAL_REF_S):
    """`seconds` measured while the calibration took `cal_s`, at the speed
    where it takes `ref_s`."""
    return seconds * ref_s / cal_s

"""Machine-speed reference for a shared, noisy host.

The sandbox this benchmark was defined on (2 vCPUs, Intel Xeon at
2.1 GHz, Python 3.11) runs the same Python code up to 1.7 times more
slowly for stretches of seconds, depending on what else shares the host.
So every timed step also measures the host's speed: a short, fixed piece
of pure-Python work (the probe) is timed before and after the step and,
in a battery process, every 50 ms during it from a SIGALRM handler.  Each
time is reported in reference seconds: the raw wall time scaled by
``REFERENCE_S / mean probe time``.  A change to ordtop moves the raw time
and not the probe; a slow phase of the host moves both.  Raw wall times
are kept in the run record.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# median of the per-step mean probe times over the runs made while this
# benchmark was defined on that sandbox, so reference seconds read as wall
# seconds at its typical speed
REFERENCE_S = 0.0006
INTERVAL_S = 0.05


def probe() -> float:
    """Wall time of the fixed work.  The collector is paused, so the time
    does not depend on the size of the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(5000):
            k = i % 97
            acc[k] = acc.get(k, 0) + (i & 255)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate(repeats: int = 9) -> float:
    """Median of ``repeats`` probes."""
    return statistics.median(probe() for _ in range(repeats))


def timed(fn, during: bool = True):
    """Run ``fn`` with the host's speed probed before and after it and,
    with ``during``, every INTERVAL_S while it runs (main thread only).
    Returns (result, raw seconds, reference seconds)."""
    samples = [calibrate()]

    def sample(signum, frame):
        samples.append(probe())

    if during:
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
    finally:
        if during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    samples.append(calibrate())
    return result, raw, raw * REFERENCE_S / statistics.fmean(samples)

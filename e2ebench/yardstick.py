"""A fixed reference task that measures how fast this machine runs right now.

A host whose cores are shared swings in speed: the same pure-Python work
takes 30 ms in one second and 50 ms in the next, and a whole minute can
run 20% slower than the one before.  Each workload times this task right
before each operation (each serve window, for the daemon) and reports op
times over its median time in the run, in units called ``ref``, so two
runs of the same code agree even when the machine's speed moved between
them.  Wall-clock times are printed and recorded beside them.

The task uses only the standard library and numpy, never the program, so
no change to the program can move the unit.  Its mix of pickling, dict
updates and numpy scans resembles what the pipelines spend their time on,
and its few megabytes of data do not fit in a core's own caches, so it
slows, as they do, when neighbours contend for the shared ones.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

_VALUES = np.random.default_rng(0).uniform(0.0, 1.0, 500_000)
_ROWS = [(float(i), i % 13, ("x", i)) for i in range(10_000)]


def _task() -> tuple[int, float]:
    back = pickle.loads(pickle.dumps(_ROWS, protocol=5))
    sums: dict[int, float] = {}
    for a, b, _ in back:
        sums[b] = sums.get(b, 0.0) + a
    inside = (_VALUES > 0.3) & (_VALUES < 0.7)
    return len(sums), float(_VALUES[inside].sum())


def measure(repeats: int = 1) -> float:
    """Median seconds of ``repeats`` back-to-back runs of the reference task."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _task()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


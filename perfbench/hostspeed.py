"""Host-speed reference: a fixed computation timed next to every op.

On a shared host the same op can take 150 ms for ten seconds and 250 ms for
the next twenty, with CPU time equal to wall time throughout.  The reference
computation below is part of the benchmark, not of histwalk, and mixes the
three kinds of work the workloads do: many small NumPy calls, a plain Python
loop, and one pass over an array of a few megabytes.  Each op's wall time is
scaled by ``NOMINAL_S / c``, where ``c`` is the median reference time around
that op, so the timing metrics read as seconds on a host where the
reference takes ``NOMINAL_S``.  The raw wall times stay in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.012  # about the reference's time on a quiet 2-core 2.0 GHz host
NEIGHBOURS = 3  # reference times on each side of an op that set its scale

_SMALL = np.full((121, 8), 0.25 + 0.5j)
_LARGE = np.full((401, 256), 0.5 - 0.25j)


def reference_op() -> float:
    """Run the fixed reference computation once; returns its wall time."""
    start = time.perf_counter()
    a = _SMALL
    for _ in range(600):
        b = np.empty_like(a)
        b[:, 0::2] = a[:, 1::2] * 0.8
        b[:, 1::2] = a[:, 0::2] * 0.6j
        a = b
    total = 0
    for i in range(80_000):
        total += i & 7
    for _ in range(12):
        (np.abs(_LARGE) ** 2).sum(axis=1)
    return time.perf_counter() - start


def scaled(times: list[float], references: list[float]) -> list[float]:
    """Op times scaled to nominal host speed.

    ``references[i]`` was taken right before op ``i``; one more follows the
    last op.
    """
    out = []
    for i, elapsed in enumerate(times):
        near = references[max(0, i - NEIGHBOURS + 1) : i + NEIGHBOURS + 1]
        out.append(elapsed * NOMINAL_S / statistics.median(near))
    return out

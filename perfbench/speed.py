"""Machine-speed calibration.

The machine the benchmark was written on slows down and speeds up by up to
±20% over tens of seconds, for every process on it (a fixed pure-Python loop
shows the same swings, at the same CPU time per wall second).  A 30-s run
sees only part of such a swing, so raw times spread by 10–30% between runs.

``kernel()`` is a fixed piece of work in the program's own style: interpreted
float arithmetic, dict updates and small numpy array expressions.  It does
not use the program.  ``Speed`` runs it between ops, at most every
``EVERY_S``, and scales each op's latency by ``NOMINAL_S`` over the kernel's
time around that op.  The figures so scaled are those of a machine on which
the kernel takes exactly ``NOMINAL_S``; a change to the program moves them as
it moves raw times, while the machine's own swings cancel.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 1e-3  # the kernel's time on the reference machine the figures are scaled to
EVERY_S = 0.1     # at most one kernel run per this many seconds of ops
SMOOTH = 5        # each op's speed is the median of this many neighbouring kernel runs

_XS = np.linspace(0.5, 2.0, 64)


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(2000):
        acc += (i * 0.5) ** 2 % 7.0
        table[i & 63] = acc
    for _ in range(40):
        acc += float(np.sum(np.exp(-_XS * _XS) * _XS))
    return time.perf_counter() - start


class Speed:
    def __init__(self):
        self.kernel_s: list[float] = []
        self._due = 0.0

    def tick(self) -> int:
        """Run the kernel if it is due; return the index of the latest run."""
        if time.perf_counter() >= self._due:
            self.kernel_s.append(kernel())
            self._due = time.perf_counter() + EVERY_S
        return len(self.kernel_s) - 1

    def factors(self, index) -> np.ndarray:
        """NOMINAL_S over the kernel time around each of the given kernel
        runs: the median of the SMOOTH runs centred on it."""
        half = SMOOTH // 2
        padded = np.pad(np.asarray(self.kernel_s), half, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        return NOMINAL_S / smooth[np.asarray(index, dtype=int)]

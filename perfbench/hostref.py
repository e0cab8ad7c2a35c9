"""Host-speed reference: a fixed numpy kernel timed between cells.

On the shared 2-vCPU VM this benchmark was tuned on, the same code runs up to
1.7x slower for stretches of a few seconds to minutes. Process CPU time
tracks wall time and steal stays near zero, so neither a CPU clock nor a
longer run removes it: a run's wall-clock figures depend on how much of it
fell into slow stretches. The kernel below does the same kind of work as a
cell (SVD, Gram matrix and solve on 4 x 64 complex blocks, one BLAS thread)
and slows down with it. The client times a burst of `REF_BURST` runs of it
between cells, at most every `REF_EVERY_S`, and each cell's time is
multiplied by `REF_NOMINAL_S / r`, where r is the median of the bursts taken
just before and just after the cell. That scales every cell to a host on which
the kernel takes `REF_NOMINAL_S`, and leaves the program's own cost.

The kernel is part of the benchmark, not of the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on the measuring VM (Intel Xeon, 2.1 GHz, numpy 2.4.6,
# scipy-openblas 0.3.31, one BLAS thread) in its fast stretches.
REF_NOMINAL_S = 1.4e-3
# Shortest gap between two bursts. One kernel run takes 1.4-2.5 ms, so on
# the 4 ms cells of `closed-form` the bursts cost about 5% of the run.
REF_EVERY_S = 0.1
# Kernel runs per burst. Two runs 50 ms apart differ by up to 1.4x, so one
# run alone would add that noise to every cell it scales.
REF_BURST = 3


class HostReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._blocks = rng.standard_normal((8, 4, 64)) + 1j * rng.standard_normal((8, 4, 64))
        self._eye = np.eye(4)
        self.bursts: list[list[float]] = []
        self._last = -float("inf")

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            for h in self._blocks:
                np.linalg.svd(h, full_matrices=False)
                np.linalg.solve(h @ h.conj().T + self._eye, h)
        t1 = time.perf_counter()
        self._last = t1
        return t1 - t0

    def sample(self) -> int:
        """Time one burst; returns its index."""
        self.bursts.append([self._kernel() for _ in range(REF_BURST)])
        return len(self.bursts) - 1

    def before_cell(self) -> int:
        """Time a burst when `REF_EVERY_S` has passed since the last one.
        Returns the index of the latest burst, which the next cell follows."""
        if time.perf_counter() - self._last >= REF_EVERY_S:
            return self.sample()
        return len(self.bursts) - 1

    def scale(self, k: int) -> float:
        """Factor for a cell that ran after burst k and before burst k + 1
        (or after the last burst, when k is the last)."""
        ref = [x for burst in self.bursts[k:k + 2] for x in burst]
        return REF_NOMINAL_S / statistics.median(ref)

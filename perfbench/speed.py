"""Machine-speed probe.

On a shared machine the same code runs up to 1.7x slower for phases of
seconds to minutes while neighbours load the cores.  That drift is larger
than any change a benchmark run should detect, and longer runs do not
average it out.  The probe times a small fixed kernel, independent of
gabwin, with the same ingredients as the program's work (an FFT, a batch
of small Hermitian eigensolves, interpreted Python), close in time to each
measurement: before and after every op and every set-up.  A measured time
t is reported as t * REFERENCE_S / probe, with the mean of the probes
around it: its value on a machine where the kernel takes REFERENCE_S.  The raw times
are reported beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1.5e-3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.standard_normal(8640) + 1j * rng.standard_normal(8640)
        blocks = rng.standard_normal((256, 2, 2))
        self._blocks = blocks @ blocks.transpose(0, 2, 1)
        self.samples = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            np.fft.fft(self._signal)
            np.linalg.eigvalsh(self._blocks)
            total = 0
            for i in range(3000):
                total += i
        return time.perf_counter() - start

    def measure(self) -> float:
        """Mean of three kernel times, in seconds: the mean, not the best,
        because the op it scales pays for the neighbours' bursts too."""
        self.samples.append(sum(self._kernel() for _ in range(3)) / 3)
        return self.samples[-1]

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from a time measured between two probes to reference speed."""
        return REFERENCE_S / (0.5 * (before + after))

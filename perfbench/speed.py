"""Machine-speed probe: a fixed kernel timed between operations.

On a shared host the CPU speed available to one process changes by tens of
percent, from one second to the next and over tens of minutes, and moves
every timing of a run.  The probe runs the same small mix of interpreter
work and small-array numpy calls as the program does, three times just
before and just after every measured operation, and between the set-up
interpreters.  An operation's time is multiplied by
``(REFERENCE_S / probe time) ** EXPONENT``, the probe time being the mean of
the medians of the samples just before and just after it; set-up times use
the median of all samples taken between the set-up interpreters.  That
expresses them in seconds of a machine on which the probe takes exactly
``REFERENCE_S``; the raw wall-clock figures are printed beside the scaled
ones.

Per operation, because the host switches between a fast and a slow state
(probe near 0.65 ms or near 1.05 ms) every few seconds: over three passes of
the same 84 sweep calls, a call's time varied by 11 % (coefficient of
variation) raw and by 7 % scaled by the probes around it, and the pass's
90th percentile by 20 % when scaled by the pass's median probe but by 3 %
when scaled per call.

``EXPONENT`` < 1 because the program's time does not follow the probe in
full proportion, and how closely it follows depends on the workload.  On a
2-vCPU shared host, the exponent that brought the medians of a set of runs
made while the host was mostly fast (median probe 0.71-0.87 ms) closest to
those of a set made while it was mostly slow (1.11-1.15 ms) was 0.8-0.9 for
sweep, 0.8 for verify-n8 and 0.9-1.0 for evolve, and the one that gave one
call the steadiest time over repeated passes was 0.8 for sweep and 0.6 for
evolve.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import numpy.polynomial.polynomial as npp

REFERENCE_S = 1e-3
EXPONENT = 0.8
REPS = 100


class SpeedProbe:
    def __init__(self):
        k = np.arange(64).reshape(8, 8)
        self._matrix = (k % 7 + 1j * (k % 5)) / 7.0
        self._coeffs = np.linspace(1.0, 2.0, 9) + 0.5j
        self.samples = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        z, acc = 0.3 + 0.1j, 0j
        for _ in range(REPS):
            acc += npp.polyval(z, self._coeffs)
            acc += (self._matrix @ self._matrix)[0, 0]
            acc += sum(w * w for w in range(30))
            z = 0.99 * z + 0.01j
        self.samples.append(time.perf_counter() - t0)

    def measure(self, count: int = 3) -> float:
        """Median time of `count` fresh samples."""
        for _ in range(count):
            self.sample()
        return statistics.median(self.samples[-count:])

    def median_s(self) -> float:
        return statistics.median(self.samples)

    @staticmethod
    def factor(probe_s: float) -> float:
        """Factor from seconds measured at probe time `probe_s` to reference seconds."""
        return (REFERENCE_S / probe_s) ** EXPONENT

    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds, from all samples."""
        return self.factor(self.median_s())

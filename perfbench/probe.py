"""Machine-speed probe: a fixed unit of work that uses none of cstar_angles.

The hosts this benchmark was built on share physical cores with other
tenants. Their speed changes in steps of up to 2x that last from seconds to
a minute, and CPU time grows with wall time, so no longer run averages the
steps out. Unscaled, the ten-seed spread of the m2 job rate ranged from 11%
to 31% from one set of runs to the next.

The run loop therefore times this probe between jobs, at least every
PROBE_INTERVAL_S, and scales each job by ``REFERENCE_S`` over the mean of
the two probe times around it: the gated times read as if measured at the
reference machine's speed. The probe is the same kind of work that most
package calls do: SVDs, products and contractions of 4x4 and 16x16 complex
matrices, and the gathers and scatters along a group table that the
group-algebra module does. In the final ten-seed runs it took the spread
of the m2 job rate from 11% to 2.5% (README.md has every workload). A program change
cannot move the probe, because the probe calls only numpy.
"""

from __future__ import annotations

import time

import numpy as np

# median probe time on the reference machine (2 cores, OpenBLAS 0.3.31)
# while no other tenant slowed it
REFERENCE_S = 0.0051
PROBE_INTERVAL_S = 0.25
# (matrix size, repetitions) of the linear-algebra part
WORK = ((4, 100), (16, 50))
# size and repetitions of the gather/scatter part
TABLE_SIZE, TABLE_REPS = 24, 60


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.work = [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), reps)
            for n, reps in WORK
        ]
        shape = (TABLE_SIZE, TABLE_SIZE)
        self.square = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.table = np.argsort(rng.random(shape), axis=1)
        self.cols = np.broadcast_to(np.arange(TABLE_SIZE), shape)
        self.samples: list[float] = []
        self.last = -np.inf

    def __call__(self):
        """Time one unit of work and append the time to ``samples``."""
        start = time.perf_counter()
        acc = 0.0
        for a, reps in self.work:
            for _ in range(reps):
                acc += float(np.linalg.svd(a, compute_uv=False)[0])
                acc += float(np.einsum("ij,ji->", a, a @ a.conj().T).real)
        for _ in range(TABLE_REPS):
            picked = self.square[self.table, self.cols].sum(axis=1)
            out = np.zeros_like(self.square)
            out[self.table, self.cols] = picked[:, None]
            acc += float(out[0, 0].real)
        self.last = time.perf_counter()
        if not np.isfinite(acc):
            raise ArithmeticError("probe produced a non-finite value")
        self.samples.append(self.last - start)

    @property
    def latest(self) -> int:
        """Index of the most recent sample."""
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_INTERVAL_S

    def factor(self, index: int) -> float:
        """Takes a time measured between samples ``index`` and ``index + 1``
        to the reference speed."""
        return REFERENCE_S / ((self.samples[index] + self.samples[index + 1]) / 2)

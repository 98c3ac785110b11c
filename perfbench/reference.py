"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and that
host's speed drifts by a third or more over tens of seconds (same inputs,
same process).  No run length tames a drift that slow, so every timed
request is paired with a run of this kernel just before and just after
it, and the end-to-end throughput and latency metrics are expressed in
units of the kernel's time (``ref``): a request that took 0.5 s while the
kernel took 0.1 s cost 5 ref.  Both sides slow down together, so the
ratio keeps what the program costs and drops what the host did.

The kernel imports nothing from the program and its inputs are fixed, so
a change to the program cannot move it.  Host contention slows memory
traffic, numpy call overhead and the interpreter by different amounts, so
the kernel runs one part of each.  Their weights (roughly 1 : 2 : 1 in
kernel time) are the mix whose ratio to the request time drifted least
over 150-180 s fixed-input runs of all three workloads:

* large-array numpy: neighbour gathers and max-reductions over a
  d-regular CSR layout at n=2048, B=32;
* small-array numpy: many calls on a 64 x 8 array, where dispatch
  dominates;
* pure Python: dictionary updates and integer arithmetic.
"""

from __future__ import annotations

import time

import numpy as np

_N, _D, _B = 2048, 8, 32
_GATHER_ROUNDS = 4
_SMALL_CALLS = 2500
_PY_ITERS = 120000


class ReferenceKernel:
    """Fixed-input kernel; :meth:`timed` returns the wall time of one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.neighbors = rng.integers(_N, size=_N * _D)
        self.starts = np.arange(0, _N * _D, _D)
        self.state = rng.integers(0, 1 << 20, size=(_N, _B), dtype=np.int64)
        self.small = rng.integers(0, 1000, size=(64, 8))
        self.expected = self._run()

    def _large(self) -> int:
        state = self.state.copy()
        for r in range(_GATHER_ROUNDS):
            best = np.maximum.reduceat(state[self.neighbors], self.starts, axis=0)
            state = np.maximum(state, best) ^ (r + 1)
        return int(state[0, 0])

    def _small(self) -> int:
        a = self.small.copy()
        tally = 0
        for _ in range(_SMALL_CALLS):
            a = np.maximum(a, np.roll(a, 1, axis=0)) - (a > 500)
            tally += int(a.sum() & 1)
        return tally

    @staticmethod
    def _python() -> int:
        buckets: dict[int, int] = {}
        tally = 0
        for i in range(_PY_ITERS):
            buckets[i & 255] = buckets.get(i & 255, 0) + i
            tally ^= i * 7
        return tally + len(buckets)

    def _run(self) -> tuple[int, int, int]:
        return self._large(), self._small(), self._python()

    def timed(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        t0 = time.perf_counter()
        out = self._run()
        elapsed = time.perf_counter() - t0
        if out != self.expected:
            raise RuntimeError("reference kernel gave a different result")
        return elapsed

"""The benchmark's three workloads.

Each workload derives every input from the workload seed (networks,
placements, seed axes, churn deltas, the query mix) and hands the program
only those generated inputs.  A workload has four parts:

* ``setup()`` — graph builds, engine/service construction and one warm-up
  call, replacing any earlier set-up; the harness times it as ``setup_s``;
* ``step(i)`` — one closed-loop request (one sweep call, or one service
  epoch), timed by the harness;
* ``check()`` — after timing, recompute a fixed sample of cells or queries
  through a reference path and compare them bit for bit;
* ``close()`` — release the state (the service's event loop and executor)
  once the run is over.

All three run in one process with in-process engines and no worker pool.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.graphs.smallworld as smallworld
from repro.adversary.placement import placement_for_delta
from repro.core import (
    CountingConfig,
    make_adversary,
    practical_band,
    run_counting,
    run_counting_batch,
    run_multi_sweep,
    run_sweep,
)
from repro.graphs.hgraph import hgraph_from_cycles
from repro.service import ChurnDelta, EstimationService, ResidentEngine
from repro.sim.channel import ChannelModel

DEGREE = 8
_SEED_SPACE = 2**31


@dataclass
class Step:
    """What one timed request produced."""

    cells: int
    ops: int
    latencies_ms: list[float]
    submits: dict[Any, float] = field(default_factory=dict)


def same_result(a: Any, b: Any) -> bool:
    """Bit-for-bit equality of two :class:`CountingResult` objects."""
    return (
        (a.n, a.d, a.k) == (b.n, b.d, b.k)
        and np.array_equal(a.decided_phase, b.decided_phase)
        and np.array_equal(a.crashed, b.crashed)
        and np.array_equal(a.byz, b.byz)
        and a.meter.as_dict() == b.meter.as_dict()
        and list(a.trace) == list(b.trace)
        and a.injections_accepted == b.injections_accepted
        and a.injections_rejected == b.injections_rejected
    )


def _ints(rng: np.random.Generator, count: int) -> list[int]:
    """``count`` distinct seeds from ``rng``."""
    return [int(x) for x in rng.choice(_SEED_SPACE, size=count, replace=False)]


class Workload:
    """Shared plumbing: input streams, the check sample, the band metric."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first: list[Any] = []  # every result of step 0 (for in_band_frac)
        # Check sample, as [(reference inputs..., result)]: "first" from
        # step 0, "last" overwritten by every later step.
        self.samples: dict[str, list[tuple[Any, ...]]] = {}

    def stream(self, *key: int) -> np.random.Generator:
        """An independent input stream for ``key`` under the workload seed."""
        return np.random.default_rng([self.seed, *key])

    def keep(self, i: int, results: list[Any], sample: list[tuple[Any, ...]]) -> None:
        if i == 0:
            self.first = results
            self.samples["first"] = sample
        else:
            self.samples["last"] = sample

    def in_band_frac(self) -> float:
        c1, c2 = practical_band(DEGREE)
        return float(np.mean([r.fraction_in_band(c1, c2) for r in self.first]))

    def check(self) -> tuple[int, int]:
        """``(checked, failed)`` over the kept sample."""
        checked = failed = 0
        for sample in self.samples.values():
            for item in sample:
                checked += 1
                try:
                    ok = same_result(self.reference(*item[:-1]), item[-1])
                except Exception:  # a reference that raises is a failed check
                    ok = False
                failed += not ok
        return checked, failed

    def reference(self, *inputs: Any) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SweepByz(Workload):
    """``run_sweep`` over 3 strategies x 4 placements x a seed axis."""

    name = "sweep-byz"
    strategies = ("early-stop", "inflation", "adaptive-record")

    def __init__(self, seed: int, toy: bool) -> None:
        super().__init__(seed)
        self.n = 128 if toy else 2048
        self.seeds_per_call = 2 if toy else 8
        self.net_seed = int(self.stream(0).integers(_SEED_SPACE))
        self.config = CountingConfig()

    def setup(self) -> None:
        self.net = smallworld.build_small_world(self.n, DEGREE, seed=self.net_seed)
        self._sweep(*self._inputs(0))

    def _inputs(self, i: int) -> tuple[list[int], list[Any]]:
        """Request ``i``'s seed axis and its 4 placements.

        Placements are drawn per request, not once per run: how long a
        Byzantine cell runs depends on where the liars sit, so a run
        averages over many placements instead of carrying 4 fixed ones.
        """
        rng = self.stream(1, i)
        seeds = _ints(rng, self.seeds_per_call)
        placements = [placement_for_delta(self.net, 0.5, rng=s) for s in _ints(rng, 4)]
        return seeds, placements

    def _sweep(self, seeds: list[int], placements: list[Any]) -> Any:
        return run_sweep(
            self.net,
            seeds=seeds,
            configs=self.config,
            placements=placements,
            strategies=list(self.strategies),
        )

    def step(self, i: int) -> Step:
        seeds, placements = self._inputs(i + 1)
        t0 = time.perf_counter()
        res = self._sweep(seeds, placements)
        lat = (time.perf_counter() - t0) * 1e3
        last = len(seeds) - 1
        sample = [
            (s, placements[p], seeds[b], res.cell(strategy=s, placement=p, seed=b))
            for s in range(len(self.strategies))
            for p in range(len(placements))
            for b in (0, last)
        ]
        self.keep(i, res.results, sample)
        return Step(len(res.results), len(res.results), [lat])

    def reference(self, s: int, placement: Any, seed: int) -> Any:
        return run_counting(
            self.net,
            config=self.config,
            seed=seed,
            adversary=make_adversary(self.strategies[s]),
            byz_mask=placement,
        )


class ScanLossy(Workload):
    """``run_multi_sweep`` over three sizes under a lossy, noisy channel."""

    name = "scan-lossy"
    channel = ChannelModel(loss_p=0.15, noise_p=0.05, noise_amp=2)

    def __init__(self, seed: int, toy: bool) -> None:
        super().__init__(seed)
        self.sizes = (64, 128, 256) if toy else (512, 1024, 2048)
        self.seeds_per_call = 2 if toy else 16
        self.net_seeds = _ints(self.stream(0), len(self.sizes))
        self.config = CountingConfig(verification=False)

    def setup(self) -> None:
        self.nets = [
            smallworld.build_small_world(n, DEGREE, seed=s)
            for n, s in zip(self.sizes, self.net_seeds, strict=True)
        ]
        # A two-seed warm-up: every call stacks its own union kernel, so a
        # full-width warm-up would warm nothing more.
        self._scan(_ints(self.stream(1, 0), 2))

    def _scan(self, seeds: list[int]) -> Any:
        return run_multi_sweep(
            self.nets, seeds=seeds, configs=self.config, channel=self.channel
        )

    def step(self, i: int) -> Step:
        seeds = _ints(self.stream(1, i + 1), self.seeds_per_call)
        t0 = time.perf_counter()
        res = self._scan(seeds)
        lat = (time.perf_counter() - t0) * 1e3
        last = len(seeds) - 1
        sample = [
            (g, seeds[b], res.cell(network=g, seed=b))
            for g in range(len(self.nets))
            for b in (0, last)
        ]
        self.keep(i, res.results, sample)
        return Step(len(res.results), len(res.results), [lat])

    def reference(self, g: int, seed: int) -> Any:
        # The scalar runner has no channel, so the reference is the
        # per-network batch-of-1 call under the same channel.
        return run_counting_batch(
            self.nets[g], [seed], config=self.config, channel=self.channel
        )[0]


class ServiceChurn(Workload):
    """A closed-loop client of :class:`EstimationService` under churn.

    Each epoch submits, in one event-loop tick, a churn (one leave, one
    join) on the small overlay followed by a burst of queries on both
    overlays.  The churn is an ordering barrier, so the front fuses the
    whole burst into one serve call every epoch.
    """

    name = "service-churn"

    def __init__(self, seed: int, toy: bool) -> None:
        super().__init__(seed)
        self.sizes = {"small": 128, "large": 256} if toy else {"small": 1024, "large": 2048}
        self.per_overlay = 4 if toy else 16
        self.net_seeds = dict(zip(self.sizes, _ints(self.stream(0), 2), strict=True))
        self.config = CountingConfig(verification=False)
        self.loop: asyncio.AbstractEventLoop | None = None

    def _burst(self, rng: np.random.Generator) -> list[tuple[str, int]]:
        seeds = _ints(rng, self.per_overlay * len(self.sizes))
        names = [name for name in self.sizes for _ in range(self.per_overlay)]
        return list(zip(names, seeds, strict=True))

    def setup(self) -> None:
        if self.loop is None:
            self.loop = asyncio.new_event_loop()
            # One executor thread for every set-up keeps the engine's
            # allocations in one malloc arena, so peak RSS is repeatable.
            self.loop.set_default_executor(ThreadPoolExecutor(max_workers=1))
        else:
            self.loop.run_until_complete(self.service.aclose())
        self.engine = ResidentEngine(config=self.config)
        for name, n in self.sizes.items():
            self.engine.add_overlay(name, n=n, d=DEGREE, seed=self.net_seeds[name])
        self.service = EstimationService(self.engine)
        self.loop.run_until_complete(self._epoch(None, 0, self._burst(self.stream(1, 0))))

    async def _epoch(
        self, leave: int | None, churn_seed: int, burst: list[tuple[str, int]]
    ) -> tuple[list[Any], dict[Any, float], list[float]]:
        submits: dict[Any, float] = {}
        lats: list[float] = []

        async def query(name: str, seed: int) -> Any:
            submits[name, seed] = t0 = time.perf_counter()
            res = await self.service.query(name, seed)
            lats.append((time.perf_counter() - t0) * 1e3)
            return res

        # gather() starts the tasks in argument order within one tick, so
        # the churn is queued ahead of the whole burst.
        coros = [query(name, seed) for name, seed in burst]
        if leave is not None:
            churn = self.service.churn("small", ChurnDelta((leave,), 1), rng=churn_seed)
            return list((await asyncio.gather(churn, *coros))[1:]), submits, lats
        return list(await asyncio.gather(*coros)), submits, lats

    def step(self, i: int) -> Step:
        assert self.loop is not None
        rng = self.stream(1, i + 1)
        leave = int(rng.integers(self.engine.network("small").n))
        churn_seed = int(rng.integers(_SEED_SPACE))
        burst = self._burst(rng)
        results, submits, lats = self.loop.run_until_complete(
            self._epoch(leave, churn_seed, burst)
        )
        nets = {name: self.engine.network(name) for name in self.sizes}
        positions = [0, self.per_overlay - 1]
        sample = [
            (nets[name], seed, res)
            for j, ((name, seed), res) in enumerate(zip(burst, results, strict=True))
            if j % self.per_overlay in positions
        ]
        self.keep(i, results, sample)
        # The churn is one more (write) operation.
        return Step(len(results), len(results) + 1, lats, submits)

    def reference(self, net: Any, seed: int) -> Any:
        return run_counting(net, config=self.config, seed=seed)

    def check(self) -> tuple[int, int]:
        checked, failed = super().check()
        # The patched overlay must equal a cold rebuild from its own cycles.
        snap = self.engine.network("small")
        try:
            cold = smallworld.build_small_world(
                snap.n, snap.d, h=hgraph_from_cycles(snap.h.cycles), k=snap.k
            )
            ok = all(
                np.array_equal(getattr(snap, f), getattr(cold, f))
                for f in ("g_indptr", "g_indices", "g_dist")
            )
        except Exception:  # a rebuild that raises is a failed check
            ok = False
        return checked + 1, failed + (not ok)

    def close(self) -> None:
        if self.loop is None:
            return
        loop, self.loop = self.loop, None
        try:
            loop.run_until_complete(self.service.aclose())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SweepByz, ScanLossy, ServiceChurn)
}

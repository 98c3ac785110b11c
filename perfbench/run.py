"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-byz --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Each
timed request sits between two runs of a fixed reference kernel (see
``reference.py``), and throughput and latency are reported in units of
the kernel's time, so the host's drifting speed cancels out; the raw
wall-clock figures are printed on a ``#`` line above the result.
``--trace 1`` is the separate traced pass: timed requests alternate between
untraced and traced, the traced ones record spans around the calls into
each layer (see ``tracer.py``), and the per-layer metrics come from those
spans.  The spans are written to ``.perfbench/`` in the working directory.

Both modes check a fixed sample of the outputs against a reference path
after timing and count every mismatch as a failed operation.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; every metric is ``{"value", "unit"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Any

import numpy as np
from reference import ReferenceKernel

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _import_program(root: str) -> None:
    """Put ``<root>/src`` first on the path and import the program from it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program source at {src}/repro; run from the "
            "repository root"
        )
    sys.path.insert(0, src)
    import repro

    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported repro from {where}, not from {src}")


def pin_to_one_cpu() -> None:
    """Keep this thread, and every thread it starts, on one CPU.

    The reference kernel runs on the main thread while the service's
    serves and churns run on its executor thread.  On a shared host two
    CPUs can run at different speeds at the same moment, so the kernel
    would time one CPU and the request another; on one CPU both see the
    same host.  One request is in flight at a time and the main thread
    waits while the executor works, so the run loses no parallelism.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fingerprint() -> dict[str, Any]:
    """The machine and software facts a measurement depends on."""
    import importlib.util

    from repro.sim.backends import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": resolve_backend(None).name,
        "numba": importlib.util.find_spec("numba") is not None,
    }


class Run:
    """Timed-loop state of one run."""

    def __init__(self) -> None:
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        # Latencies over the request's reference-kernel time.
        self.latencies_ref: list[float] = []
        # Per-request throughput (cells / request wall time), by traced-ness.
        self.rates: dict[bool, list[float]] = {False: [], True: []}
        # The same in cells per reference-kernel time.
        self.ref_rates: dict[bool, list[float]] = {False: [], True: []}
        self.ref_s: list[float] = []
        self.traced_wall = 0.0
        self.traced_cells = 0
        self.steps = 0


def timed_loop(workload: Any, seconds: float, tracer: Any) -> Run:
    """Closed loop of ``workload.step`` calls for ``seconds`` of wall time.

    The reference kernel runs before the first step and after every step;
    a step's reference time is the mean of the two runs around it.  With a
    tracer, odd steps run traced and even steps untraced, so the two rates
    compare over the same stretch of the run; the loop then runs at least
    one step of each kind.
    """
    run = Run()
    kernel = ReferenceKernel()
    start = time.perf_counter()
    run.ref_s.append(kernel.timed())
    while True:
        traced = tracer is not None and run.steps % 2 == 1
        if traced:
            lo = len(tracer.spans)
            tracer.install()
        t0 = time.perf_counter()
        try:
            step = workload.step(run.steps)
        except Exception:  # the loop keeps running; the step's ops failed
            traceback.print_exc()
            step = None
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
            tracer.mark("traced", lo, len(tracer.spans), t0, t1, step)
            run.traced_wall += t1 - t0
        run.ref_s.append(kernel.timed())
        ref = (run.ref_s[-2] + run.ref_s[-1]) / 2
        if step is None:
            run.attempted += 1
            run.failed += 1
        else:
            run.cells += step.cells
            run.attempted += step.ops
            if traced:
                run.traced_cells += step.cells
            else:
                run.latencies_ms.extend(step.latencies_ms)
                run.latencies_ref.extend(ms / (ref * 1e3) for ms in step.latencies_ms)
            run.rates[traced].append(step.cells / (t1 - t0))
            run.ref_rates[traced].append(step.cells * ref / (t1 - t0))
        run.steps += 1
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or run.steps >= 2):
            return run


def wall_clock(run: Run) -> dict[str, float]:
    """The raw wall-clock figures behind the ``ref`` metrics."""
    return {
        "cells_per_s": statistics.median(run.rates[False]),
        "query_p50_ms": float(np.percentile(run.latencies_ms, 50)),
        "query_p80_ms": float(np.percentile(run.latencies_ms, 80)),
        "ref_ms": statistics.median(run.ref_s) * 1e3,
    }


def end_to_end(workload: Any, run: Run, setup_s: float) -> dict[str, Any]:
    lat = run.latencies_ref
    return {
        "setup_s": (setup_s, "s"),
        "cells_per_ref": (statistics.median(run.ref_rates[False]), "cells/ref"),
        "query_p50_ref": (float(np.percentile(lat, 50)), "ref"),
        "query_p80_ref": (float(np.percentile(lat, 80)), "ref"),
        "in_band_frac": (workload.in_band_frac(), "fraction"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def per_layer(tracer: Any, run: Run, setups: int) -> dict[str, Any]:
    """Reduce the traced windows' spans to the per-layer metrics."""
    own = tracer.self_times()
    spans = tracer.spans
    setup_ids = [i for w in tracer.windows if w[0] == "setup" for i in range(w[1], w[2])]
    traced = [w for w in tracer.windows if w[0] == "traced"]
    ids = [i for w in traced for i in range(w[1], w[2])]
    cells = run.traced_cells

    def layer(name: str, among: list[int]) -> list[int]:
        return [i for i in among if spans[i][0] == name]

    def outer(name: str, among: list[int]) -> list[int]:
        return [i for i in layer(name, among) if spans[i][3] < 0 or spans[spans[i][3]][0] != name]

    def self_s(name: str) -> float:
        return float(sum(own[i] for i in layer(name, ids)))

    def info_sum(name: str, col: int | None = None) -> int:
        picked = outer(name, ids)
        return int(sum(spans[i][4] if col is None else spans[i][4][col] for i in picked))

    build = layer("graphs.smallworld", setup_ids)
    patches = outer("graphs.delta", ids)
    engine_calls = layer("core.batch", ids)
    trials = info_sum("core.batch", 0)
    serves = layer("service.engine.serve", ids)
    widths = [len(spans[i][4][0]) for i in serves]
    pad_rows = state_rows = 0
    for i in serves:
        sizes = spans[i][4][0]
        pad_rows += sum(max(sizes) - s for s in sizes)
        state_rows += max(sizes) * len(sizes)
    waits: list[float] = []
    for w in traced:
        submits = w[5].submits if w[5] is not None else {}
        for i in layer("service.engine.serve", list(range(w[1], w[2]))):
            waits.extend(
                (spans[i][1] - submits[tuple(key)]) * 1e3
                for key in spans[i][4][1]
                if tuple(key) in submits
            )
    top = sum(spans[i][2] - spans[i][1] for i in ids if spans[i][3] < 0)
    rate = {m: statistics.median(run.ref_rates[m]) for m in (False, True)}
    chunks = info_sum("graphs.delta", 0)
    patched_nodes = info_sum("graphs.delta", 1)
    crash_calls = len(layer("core.neighborhood", ids))

    def mean(xs: list[float]) -> float:
        return float(sum(xs) / len(xs)) if xs else 0.0

    def pct(xs: list[float], q: float) -> float:
        return float(np.percentile(xs, q)) if xs else 0.0

    return {
        "graphs.smallworld.build_s": (sum(own[i] for i in build) / setups, "s"),
        "graphs.smallworld.build_calls": (len(build) / setups, "count"),
        "graphs.smallworld.nodes": (
            sum(spans[i][4] for i in build) / setups,
            "count",
        ),
        "graphs.delta.patch_s": (self_s("graphs.delta"), "s"),
        "graphs.delta.patch_calls": (len(patches), "count"),
        "graphs.delta.chunks_recomputed": (chunks, "count"),
        "graphs.delta.recompute_frac": (
            chunks / patched_nodes if patched_nodes else 0.0,
            "fraction",
        ),
        "core.colors.draw_s": (self_s("core.colors"), "s"),
        "core.colors.draw_calls": (len(layer("core.colors", ids)), "count"),
        "core.colors.colors_drawn": (info_sum("core.colors"), "count"),
        "sim.channel.corrupt_s": (self_s("sim.channel"), "s"),
        "sim.channel.corrupt_calls": (len(layer("sim.channel", ids)), "count"),
        "sim.channel.values": (info_sum("sim.channel"), "count"),
        "sim.flood.gather_self_s": (self_s("sim.flood"), "s"),
        "sim.flood.gather_calls": (len(outer("sim.flood", ids)), "count"),
        "sim.flood.bytes_computed": (info_sum("sim.flood"), "B"),
        "adversary.plan_s": (self_s("adversary"), "s"),
        "adversary.plan_calls": (len(outer("adversary", ids)), "count"),
        "core.neighborhood.crash_s": (self_s("core.neighborhood"), "s"),
        "core.neighborhood.crash_calls": (crash_calls, "count"),
        "core.neighborhood.crash_calls_per_cell": (
            crash_calls / cells if cells else 0.0,
            "count",
        ),
        "core.batch.self_s": (self_s("core.batch"), "s"),
        "core.batch.calls": (len(engine_calls), "count"),
        "core.batch.trials_per_call": (
            trials / len(engine_calls) if engine_calls else 0.0,
            "count",
        ),
        "core.batch.rounds": (
            info_sum("core.batch", 1) / trials if trials else 0.0,
            "count",
        ),
        "core.sweep.self_s": (self_s("core.sweep"), "s"),
        "service.engine.serve_s": (
            float(sum(spans[i][2] - spans[i][1] for i in serves)),
            "s",
        ),
        "service.engine.churn_self_s": (self_s("service.engine.churn"), "s"),
        "service.engine.fusion_width": (mean(widths), "count"),
        "service.engine.pad_waste_frac": (
            pad_rows / state_rows if state_rows else 0.0,
            "fraction",
        ),
        "service.front.queue_wait_p50_ms": (pct(waits, 50), "ms"),
        "service.front.queue_wait_p90_ms": (pct(waits, 90), "ms"),
        "trace.coverage": (top / run.traced_wall, "fraction"),
        "trace.overhead_frac": (1.0 - rate[True] / rate[False], "fraction"),
        "trace.cells": (cells, "count"),
        "trace.ref_ms": (statistics.median(run.ref_s) * 1e3, "ms"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="tiny inputs, for the smoke test"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    _import_program(root)
    from tracer import Tracer
    from workloads import DEGREE, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed, args.toy)
    tracer = Tracer(DEGREE) if args.trace else None
    print(f"# fingerprint {json.dumps(fingerprint(), sort_keys=True)}")

    setup_times: list[float] = []
    try:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            if tracer is not None:
                lo = len(tracer.spans)
                tracer.install()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
                tracer.mark("setup", lo, len(tracer.spans), t0, t0 + setup_times[-1], None)
        run = timed_loop(workload, args.seconds, tracer)
        checked, mismatched = workload.check()
    finally:
        workload.close()

    attempted = run.attempted
    failed = run.failed + mismatched
    print(
        f"# {args.workload}: {run.steps} requests, {run.cells} cells, "
        f"{len(run.latencies_ms)} latency samples, {checked} outputs checked, "
        f"{mismatched} mismatched"
    )
    print(f"# wall clock {json.dumps(wall_clock(run), sort_keys=True)}")
    if tracer is None:
        metrics = end_to_end(workload, run, statistics.median(setup_times))
    else:
        metrics = per_layer(tracer, run, SETUP_REPEATS)
        out_dir = os.path.join(root, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(
            os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "fingerprint": fingerprint()},
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer for the benchmark's traced pass.

The tracer times calls into each layer's public functions by replacing
them, for the duration of a traced request, with wrappers installed at
the names the engines look them up under (module globals for functions the
engines import by name, class attributes for methods).  Nothing under
``src/`` knows about it.

Each call becomes a span ``[layer, start, end, parent, info]``.  ``parent``
is the index of the innermost open span on the same thread (or -1), so a
layer's *self* time is its span duration minus the duration of its direct
children: the channel corruption inside a flood gather, or the graph patch
inside a churn.  Spans stay in memory until :meth:`Tracer.dump`.

Method identity matters to the engines (``has_native_batch`` and the
adaptive-adversary check compare ``type(adv).method is Adversary.method``),
so a method is wrapped only on the classes whose own ``__dict__`` defines
it: an inheriting class then still resolves to the same object as its base.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections.abc import Callable
from typing import Any


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self, degree: int) -> None:
        self.degree = degree
        self.spans: list[list[Any]] = []
        # (phase, first span, end span, start, end, step) per timed window.
        self.windows: list[tuple[str, int, int, float, float, Any]] = []
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._targets = _targets(self)

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        info: Callable[[tuple[Any, ...], Any], Any] | None = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped so each call records a ``layer`` span.

        ``info(args, result)`` runs after the call, outside the timed
        interval, and its value is stored on the span.
        """
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            idx = len(tracer.spans)
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            tracer.spans.append(rec)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[1] = t0
                stack.pop()
            if info is not None:
                rec[4] = info(args, out)
            return out

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Replace every traced name with its wrapper (idempotent)."""
        if self._patches:
            return
        for owner, name, layer, info in self._targets:
            original = owner.__dict__[name]
            setattr(owner, name, self.wrap(layer, original, info))
            self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every traced name to the original object."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def mark(
        self, phase: str, lo: int, hi: int, start: float, end: float, step: Any
    ) -> None:
        """Record a window (``setup``, or one ``traced`` step) and its spans."""
        self.windows.append((phase, lo, hi, start, end, step))

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children's durations."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            parent = rec[3]
            if parent >= 0:
                own[parent] -= rec[2] - rec[1]
        return own

    def dump(self, path: str, extra: dict[str, Any]) -> None:
        """Write every span and window mark as JSON."""
        payload = dict(extra)
        payload["span_fields"] = ["layer", "start", "end", "parent", "info"]
        payload["spans"] = self.spans
        payload["window_fields"] = ["phase", "first_span", "end_span", "start", "end"]
        payload["windows"] = [w[:5] for w in self.windows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _targets(tracer: Tracer) -> list[tuple[Any, str, str, Any]]:
    """``(owner, attribute, layer, info)`` for every traced name."""
    import repro.core.batch as batch
    import repro.core.sweep as sweep
    import repro.graphs.smallworld as smallworld
    import repro.service.engine as service_engine
    import workloads as bench
    from repro.adversary.base import Adversary, PerTrialAdversaryBatch
    from repro.core.estimator import ADVERSARIES
    from repro.graphs.delta import ResidentGraph
    from repro.service.engine import ResidentEngine
    from repro.sim.channel import ChannelState
    from repro.sim.flood import FloodKernel, MultiFloodKernel, UnionFloodKernel

    degree = tracer.degree

    def nodes(args: tuple[Any, ...], out: Any) -> int:
        return int(out.n)

    def colors(args: tuple[Any, ...], out: Any) -> int:
        return int(args[1])

    def engine_call(args: tuple[Any, ...], out: Any) -> list[int]:
        return [len(out), int(sum(r.meter.rounds for r in out))]

    def corrupt(args: tuple[Any, ...], out: Any) -> int:
        return int(args[1].size)

    def gather(args: tuple[Any, ...], out: Any) -> int:
        values = args[1]
        rows, batch_cols = values.shape
        return int(rows * batch_cols * degree * values.dtype.itemsize)

    def patch(args: tuple[Any, ...], out: Any) -> list[int]:
        # Chunks recomputed over the overlay's size after the delta.
        return [int(out.recomputed), int(args[0].n)]

    def serve(args: tuple[Any, ...], out: Any) -> list[Any]:
        engine, queries = args[0], args[1]
        sizes = [engine.network(q.overlay).n for q in queries]
        keys = [[q.overlay, q.seed] for q in queries]
        return [sizes, keys]

    targets: list[tuple[Any, str, str, Any]] = [
        # The benchmark's own calls into the sweep layer.
        (bench, "run_sweep", "core.sweep", None),
        (bench, "run_multi_sweep", "core.sweep", None),
        # build_small_world is imported by name into the resident engine;
        # the benchmark's own builds go through the smallworld module.
        (smallworld, "build_small_world", "graphs.smallworld", nodes),
        (service_engine, "build_small_world", "graphs.smallworld", nodes),
        (batch, "sample_colors", "core.colors", colors),
        (batch, "crash_phase", "core.neighborhood", None),
        (sweep, "run_counting_batch", "core.batch", engine_call),
        (sweep, "run_counting_unionstack", "core.batch", engine_call),
        (service_engine, "run_counting_multinet", "core.batch", engine_call),
        (ChannelState, "corrupt", "sim.channel", corrupt),
        (ResidentGraph, "apply_delta", "graphs.delta", patch),
        (ResidentEngine, "serve", "service.engine.serve", serve),
        (ResidentEngine, "apply_churn", "service.engine.churn", None),
    ]
    for cls in (FloodKernel, UnionFloodKernel, MultiFloodKernel):
        if "neighbor_max_stacked" in cls.__dict__:
            targets.append((cls, "neighbor_max_stacked", "sim.flood", gather))
    adversary_classes: set[type] = set()
    for cls in [*ADVERSARIES.values(), PerTrialAdversaryBatch]:
        adversary_classes.update(c for c in cls.__mro__ if issubclass(c, Adversary))
    for cls in sorted(adversary_classes, key=lambda c: c.__qualname__):
        for name in ("batch_subphase_plan", "batch_topology_claims", "batch_adapt"):
            if name in cls.__dict__:
                targets.append((cls, name, "adversary", None))
    return targets

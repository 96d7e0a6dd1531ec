"""Span tracer and layer wrappers installed from outside the program.

The benchmark never edits ``src/``: it measures each layer by replacing
the layer's public entry points with timing wrappers at the binding site
the caller actually uses (a class attribute, or the name another module
imported).  Every wrapped call becomes a frame on a per-thread stack, so
a layer's *self time* is its duration minus what its wrapped children
covered, and the self times of one traced pass sum exactly to the root
span's duration.

Recorded spans carry ``(id, parent, name, start, end, cell)``; hot leaf
calls (one per simulated window) are tallied without a record.  Spans
stay in memory and are written out once, when the pass ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "install_layer_wrappers", "LAYER_SELF_TIMES"]

#: Per-layer self-time metrics and the span names that feed each one.
LAYER_SELF_TIMES = {
    "workloads.build_s": ("workloads.build",),
    "persistence.digest_s": ("persistence.launches_digest", "persistence.run_digest"),
    "persistence.get_s": ("persistence.get_run", "persistence.get_selection"),
    "persistence.put_s": ("persistence.put_run", "persistence.put_selection"),
    "profiling.detailed_s": ("profiling.detailed",),
    "pks.characterize_s": ("pks.characterize", "pks.run_pks"),
    "two_level.s": ("two_level.run",),
    "pkp.s": ("pkp.simulate", "pkp.run_pkp", "pkp.monitor"),
    "sim.full_s": ("sim.run_full", "sim.run_kernel", "sim.des"),
    "silicon.s": ("silicon.run",),
    "tbpoint.select_s": ("tbpoint.select",),
    "mlkit.merge_tree_s": ("mlkit.merge_tree",),
    "tbpoint.simulate_s": ("tbpoint.simulate",),
    "mlkit.kmeans_s": ("mlkit.kmeans",),
    "first_n.s": ("first_n.run",),
    "harness.self_s": ("harness.evaluate_cells", "harness.cell"),
}


class Tracer:
    """In-memory span recorder with exact self-time accounting."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._next_id = 1
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.cell: int | None = None
        #: cell index -> "computed" (a result was written) or "cache".
        self.cell_sources: dict[str, str] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def push(self, name: str, tag=None) -> list:
        """Open a span; ``tag`` names its cell or job (default: the
        current :attr:`cell`)."""
        stack = self._stack()
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][3] if stack else None
        frame = [name, time.perf_counter(), 0.0, span_id, parent, tag]
        stack.append(frame)
        return frame

    def pop(self, frame: list, record: bool = True) -> float:
        end = time.perf_counter()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:  # pragma: no cover - wrapper misuse
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, children, span_id, parent, tag = frame
        duration = end - start
        self.self_time[name] += duration - children
        self.calls[name] += 1
        if stack:
            stack[-1][2] += duration
        if record:
            self.spans.append(
                (span_id, parent, name, start, end, self.cell if tag is None else tag)
            )
        return duration

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def wrap(self, owner, attr: str, name: str, *, record: bool = True, after=None):
        """Replace ``owner.attr`` with a timing wrapper; ``after(args,
        kwargs, result)`` runs outside the timed interval to tally counts."""
        inner = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.push(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.pop(frame, record)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = inner
        wrapper.__name__ = getattr(inner, "__name__", attr)
        setattr(owner, attr, wrapper)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer the sweeps exercise at its public entry points."""
    import repro.analysis.harness as harness_mod
    import repro.baselines.tbpoint as tbpoint_mod
    import repro.core.pka as pka_mod
    import repro.core.two_level as two_level_mod
    import repro.sim.simulator as simulator_mod
    from repro.analysis.persistence import RunCache
    from repro.core.pka import PrincipalKernelAnalysis
    from repro.core.pkp import IPCStabilityMonitor
    from repro.mlkit.kmeans import KMeans
    from repro.profiling.detailed import DetailedProfiler
    from repro.sim.silicon import SiliconExecutor
    from repro.sim.simulator import Simulator
    from repro.workloads.spec import WorkloadSpec

    count = tracer.count

    def launches_built(args, kwargs, result):
        count("workloads.launches", len(result))

    def cache_read(args, kwargs, result):
        if result is None:
            count("persistence.misses")
        else:
            count("persistence.hits")
            tracer.cell_sources.setdefault(str(tracer.cell), "cache")

    def cache_write(args, kwargs, result):
        tracer.cell_sources[str(tracer.cell)] = "computed"

    def profiled(args, kwargs, result):
        count("profiling.kernels", len(args[1]))

    def silicon_run(args, kwargs, result):
        count("silicon.kernels", len(args[2]))

    def pkp_done(args, kwargs, result):
        count("pkp.kernels")
        if result.stopped_early:
            count("pkp.stopped_early")

    def des_done(args, kwargs, result):
        count("sim.warp_instructions", result.warp_instructions)

    wrap = tracer.wrap
    wrap(WorkloadSpec, "build", "workloads.build", after=launches_built)
    wrap(harness_mod, "launches_digest", "persistence.launches_digest")
    wrap(harness_mod, "run_digest", "persistence.run_digest")
    wrap(RunCache, "get_run", "persistence.get_run", after=cache_read)
    wrap(RunCache, "get_selection", "persistence.get_selection", after=cache_read)
    wrap(RunCache, "put_run", "persistence.put_run", after=cache_write)
    wrap(RunCache, "put_selection", "persistence.put_selection", after=cache_write)
    wrap(DetailedProfiler, "profile", "profiling.detailed", after=profiled)
    wrap(PrincipalKernelAnalysis, "characterize", "pks.characterize")
    wrap(pka_mod, "run_pks", "pks.run_pks")
    wrap(two_level_mod, "run_pks", "pks.run_pks")
    wrap(pka_mod, "run_two_level", "two_level.run")
    wrap(PrincipalKernelAnalysis, "simulate", "pkp.simulate")
    wrap(pka_mod, "run_pkp", "pkp.run_pkp", after=pkp_done)
    wrap(IPCStabilityMonitor, "observe", "pkp.monitor", record=False)
    wrap(Simulator, "run_full", "sim.run_full")
    wrap(Simulator, "run_kernel", "sim.run_kernel", record=False)
    wrap(simulator_mod, "simulate_kernel", "sim.des", after=des_done)
    wrap(SiliconExecutor, "run", "silicon.run", after=silicon_run)
    wrap(harness_mod, "select_tbpoint", "tbpoint.select")
    wrap(tbpoint_mod, "build_merge_tree", "mlkit.merge_tree")
    wrap(harness_mod, "simulate_tbpoint", "tbpoint.simulate")
    wrap(KMeans, "fit", "mlkit.kmeans")
    wrap(harness_mod, "run_first_n_instructions", "first_n.run")

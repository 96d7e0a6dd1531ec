"""One sweep pass in a fresh process: ``python3 sweep_pass.py <job.json>``.

The parent writes a job document (cells, cache directory, trace flag,
output path); this process imports the program, builds an
``EvaluationHarness`` on the serial backend (estimators off, or
observe-only for the service's warm-cache fill), runs
every cell through ``evaluate_cells`` and writes what it measured:

* the monotonic time its set-up ended (the parent subtracts its spawn
  time to get this pass's set-up time) and a host-speed probe taken
  right then;
* the sweep's wall time and each cell's host time, taken from
  successive ``progress`` callbacks;
* a digest of each cell's serialized result, for the output checks;
* peak RSS of this process;
* with ``trace`` set, every layer's self time and counts plus the spans.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _short(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical_digest(kind: str, payload) -> str:
    """Digest of a service result document, comparable to
    :func:`result_digest` of the same in-process result."""
    if kind == "none":
        return _short("none")
    if kind == "selection":
        return _short(json.dumps(payload, sort_keys=True, indent=2))
    return _short(json.dumps(payload, sort_keys=True))


def result_digest(result) -> str:
    """Short digest of one cell result's serialized form."""
    from repro.analysis.harness import CellFailure
    from repro.analysis.persistence import dump_run, dump_selection
    from repro.core.pka import KernelSelection
    from repro.sim.stats import AppRunResult

    if result is None:
        text = "none"
    elif isinstance(result, CellFailure):
        return f"failed:{result.error_type}"
    elif isinstance(result, KernelSelection):
        text = dump_selection(result)
    elif isinstance(result, AppRunResult):
        text = dump_run(result)
    else:
        return f"unexpected:{type(result).__name__}"
    return _short(text)


def run_pass(job: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from speed import SpeedTrack

    from repro.analysis.harness import CellFailure, EvaluationHarness
    from repro.analysis.persistence import RunCache
    from repro.sim.stats import AppRunResult

    tracer = None
    if job["trace"]:
        import repro.obs
        from tracing import Tracer, install_layer_wrappers

        tracer = Tracer()
        install_layer_wrappers(tracer)
        repro.obs.enable()  # only for the program's own memo-hit counter

    cells = [tuple(cell) for cell in job["cells"]]
    cache = RunCache(job["cache_dir"])
    semcache = predict = None
    if job.get("estimators"):
        # Observe-only estimators: every consult escalates (no bound can
        # be met), so each cell is computed exactly and cached, while the
        # semantic cache and the prediction tiers still ingest every
        # computed run and persist their state for the service.
        from repro.analysis.semcache import SemanticCacheConfig
        from repro.predict import PredictConfig

        semcache = SemanticCacheConfig(max_error_bound=1e-12)
        predict = PredictConfig(max_error_bound=1e-12)
    harness = EvaluationHarness(
        run_cache=cache, backend=1, semcache=semcache, predict=predict
    )
    boot_done = time.monotonic()
    speed = SpeedTrack()
    speed.sample()
    if job.get("setup_only"):
        return {"setup_done_monotonic": boot_done, "boot_probe_s": speed.durations[0]}
    bytes_before = cache.total_bytes()

    starts: list[float] = []
    ends: list[float] = []

    def probe_between_cells() -> None:
        if tracer is None:
            speed.sample()
        else:
            frame = tracer.push("bench.probe")
            speed.sample()
            tracer.pop(frame)

    def on_progress(outcome) -> None:
        ends.append(time.perf_counter())
        if tracer is not None:
            tracer.pop(tracer.cell_frame)
        if speed.due(ends[-1]):
            probe_between_cells()
        if tracer is not None:
            tracer.cell = len(ends)
            tracer.cell_frame = tracer.push("harness.cell")
        starts.append(time.perf_counter())

    start = time.perf_counter()
    starts.append(start)
    if tracer is not None:
        root = tracer.push("harness.evaluate_cells")
        tracer.cell = 0
        tracer.cell_frame = tracer.push("harness.cell")
        results = harness.evaluate_cells(cells, progress=on_progress)
        tracer.pop(tracer.cell_frame)
        tracer.pop(root)
    else:
        results = harness.evaluate_cells(cells, progress=on_progress)
    finished = time.perf_counter()
    probes_in_pass = speed.total_s - speed.durations[0]
    speed.sample()
    wall = finished - start - probes_in_pass

    cell_ms = [(end - begin) * 1000.0 for begin, end in zip(starts, ends)]
    ref_cell_ms = [
        value * speed.scale_at((begin + end) / 2.0)
        for value, begin, end in zip(cell_ms, starts, ends)
    ]
    outside_cells = wall - sum(cell_ms) / 1000.0
    ref_wall = sum(ref_cell_ms) / 1000.0 + outside_cells * speed.scale_at(finished)
    totals = {}
    for (workload, method, _gpu), result in zip(cells, results):
        if isinstance(result, AppRunResult) and method in ("silicon", "pka_sim"):
            totals.setdefault(workload, {})[method] = result.total_cycles
    document = {
        "setup_done_monotonic": boot_done,
        "boot_probe_s": speed.durations[0],
        "wall_s": wall,
        "cell_ms": cell_ms,
        "ref_wall_s": ref_wall,
        "probes_s": speed.total_s,
        "ref_cell_ms": ref_cell_ms,
        "probe_ms": [duration * 1000.0 for duration in speed.durations],
        "digests": [result_digest(result) for result in results],
        "kinds": [type(result).__name__ for result in results],
        "failures": sum(isinstance(r, CellFailure) for r in results),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": cache.total_bytes() - bytes_before,
        "cycles": totals,
        "total_cycles": [
            result.total_cycles if isinstance(result, AppRunResult) else None
            for result in results
        ],
    }
    if tracer is not None:
        import repro.obs

        document["trace"] = {
            "self_time": dict(tracer.self_time),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "obs_counters": dict(repro.obs.get_tracer().counters),
            "cell_sources": tracer.cell_sources,
            "spans": len(tracer.spans),
        }
        if job.get("spans_name"):
            from common import write_spans

            write_spans(job["spans_name"], tracer.spans)
    return document


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    document = run_pass(job)
    Path(job["out"]).write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

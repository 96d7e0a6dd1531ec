"""The two corpus sweeps: ``sweep_cold`` and ``sweep_warm``.

Both evaluate the same seeded cell plan: for every corpus workload one
near duplicate ``<base>~nd<k>`` (``k`` drawn from the seed) times the
seven methods in :data:`common.SWEEP_METHODS`, on Volta, through
``EvaluationHarness.evaluate_cells`` on the serial backend with the
estimators off.  Every pass runs in a fresh process (``sweep_pass.py``),
so no in-process memo survives from one pass to the next.

* ``sweep_cold``: each pass starts on an empty run cache, so the compute
  layers do all the work and the cache only writes.
* ``sweep_warm``: set-up fills one cache with a cold pass; every timed
  pass then reads it, so only workload build, launch digests and cache
  reads remain.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    ND_VARIANTS,
    SWEEP_EXCLUDED,
    SWEEP_METHODS,
    BenchmarkError,
    beyond,
    median,
    percentile,
    run_child,
)
from speed import REFERENCE_PROBE_S
from tracing import LAYER_SELF_TIMES

REFERENCE_PATH = BENCH_DIR / "reference.json"
PASS_TIMEOUT_S = 150.0
#: Fresh-process set-up samples per run, for a median set-up time.
SETUP_SAMPLES = 3


def corpus_names() -> list[str]:
    from repro.workloads.spec import workload_names

    return workload_names()


def cells_for(names_and_variants: list[tuple[str, int]]) -> list[list]:
    return [
        [f"{name}~nd{variant}", method, "V100"]
        for name, variant in names_and_variants
        for method in SWEEP_METHODS
        if (name, method) not in SWEEP_EXCLUDED
    ]


def plan(seed: int) -> list[tuple[str, int]]:
    """Seed -> one near-duplicate variant per corpus workload."""
    rng = random.Random(f"perfbench-sweep/{seed}")
    return [(name, rng.randint(1, ND_VARIANTS)) for name in corpus_names()]


def workload_digests(cells: list[list], digests: list[str]) -> dict[str, str]:
    """Fold per-cell digests into one digest per near-duplicate workload."""
    grouped: dict[str, list[str]] = {}
    for (workload, method, _gpu), digest in zip(cells, digests):
        grouped.setdefault(workload, []).append(f"{method}={digest}")
    return {
        workload: hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]
        for workload, parts in grouped.items()
    }


def load_reference() -> dict[str, str]:
    document = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if list(document["methods"]) != list(SWEEP_METHODS) or document["variants"] != ND_VARIANTS:
        raise BenchmarkError("reference.json was recorded for another cell plan")
    return document["digests"]


class PassRunner:
    """Spawns sweep passes and setup probes, one fresh process each."""

    def __init__(self, workdir: Path, cells: list[list], spans_name: str = "") -> None:
        self.workdir = workdir
        self.cells = cells
        self.spans_name = spans_name
        self.count = 0
        #: Fresh-process set-up times, in reference seconds (speed.py).
        self.setup_samples: list[float] = []
        self.raw_setup_samples: list[float] = []

    def run(
        self,
        cache_dir: Path,
        *,
        trace: bool = False,
        setup_only: bool = False,
        estimators: bool = False,
    ) -> dict:
        self.count += 1
        job_path = self.workdir / f"job{self.count}.json"
        out_path = self.workdir / f"out{self.count}.json"
        job = {
            "cells": self.cells,
            "cache_dir": str(cache_dir),
            "trace": trace,
            "setup_only": setup_only,
            "estimators": estimators,
            "out": str(out_path),
            "spans_name": f"{self.spans_name}-pass{self.count}" if trace else None,
        }
        job_path.write_text(json.dumps(job), encoding="utf-8")
        spawned = time.monotonic()
        run_child([str(BENCH_DIR / "sweep_pass.py"), str(job_path)], PASS_TIMEOUT_S)
        document = json.loads(out_path.read_text(encoding="utf-8"))
        document["exited_after_s"] = time.monotonic() - spawned
        if not trace:
            # Traced set-up includes installing the wrappers; keep it out.
            raw = document["setup_done_monotonic"] - spawned
            self.raw_setup_samples.append(raw)
            self.setup_samples.append(raw * REFERENCE_PROBE_S / document["boot_probe_s"])
        return document

    def top_up_setup_samples(self, cache_dir: Path) -> None:
        while len(self.setup_samples) < SETUP_SAMPLES:
            self.run(cache_dir, setup_only=True)


def reference_fill_s(document: dict) -> float:
    """A fill pass's spawn-to-exit time with its sweep in reference
    seconds: the sweep is most of it and moves with host speed."""
    return document["exited_after_s"] - document["wall_s"] - document["probes_s"] + document["ref_wall_s"]


def run_sweep(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    pairs = plan(seed)
    cells = cells_for(pairs)
    runner = PassRunner(workdir, cells, f"{workload}-seed{seed}")
    reference = load_reference()
    checks: dict[str, int] = {"reference_mismatches": 0, "cold_warm_mismatches": 0}
    fill_s = 0.0
    fill = None
    warm_cache = workdir / "warm-cache"
    if workload == "sweep_warm":
        fill = runner.run(warm_cache)
        fill_s = reference_fill_s(fill)
        # The fill's own boot is inside fill_s.
        runner.setup_samples.clear()
        runner.raw_setup_samples.clear()

    def cache_for_pass(index: int) -> Path:
        if workload == "sweep_warm":
            return warm_cache
        return workdir / f"cold-cache{index}"

    # Untraced runs time passes back to back; traced runs alternate an
    # untraced and a traced pass so the difference is the tracing cost.
    untraced: list[dict] = []
    traced: list[dict] = []
    started = time.monotonic()
    while True:
        index = len(untraced) + len(traced)
        with_trace = trace and index % 2 == 1
        cache_dir = cache_for_pass(index)
        document = runner.run(cache_dir, trace=with_trace)
        (traced if with_trace else untraced).append(document)
        elapsed = time.monotonic() - started
        done = len(untraced) + len(traced)
        if trace and not traced:
            continue
        if elapsed + elapsed / done > seconds:
            break
    runner.top_up_setup_samples(workdir / "probe-cache")

    all_passes = untraced + traced
    for document in all_passes + ([fill] if fill is not None else []):
        observed = workload_digests(cells, document["digests"])
        checks["reference_mismatches"] += sum(
            1 for name, digest in observed.items() if reference.get(name) != digest
        )
    if fill is not None:
        checks["cold_warm_mismatches"] = sum(
            a != b for document in all_passes for a, b in zip(fill["digests"], document["digests"])
        )
    failed = sum(document["failures"] for document in all_passes)
    attempted = len(cells) * len(all_passes)

    # Host times scaled to reference speed (speed.py) are the gated
    # figures; the raw host times are reported beside them.  A cell's
    # time is its median over the run's passes, so the percentiles rank
    # cells rather than single noisy measurements.
    def per_cell(key: str) -> list[float]:
        return [median(d[key][i] for d in untraced) for i in range(len(cells))]

    ref_cell_ms = per_cell("ref_cell_ms")
    raw_cell_ms = per_cell("cell_ms")
    walls = [document["wall_s"] for document in untraced]
    probe_ms = [value for document in untraced for value in document["probe_ms"]]
    setup_s = fill_s + median(runner.setup_samples)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(d["ref_wall_s"] for d in untraced), "s"),
        "p50_ms": (percentile(ref_cell_ms, 50), "ms"),
        "p99_ms": (percentile(ref_cell_ms, 99), "ms"),
        "peak_rss_mib": (median(d["peak_rss_mib"] for d in untraced), "MiB"),
    }
    pka_error = pka_error_pct(untraced[0]["cycles"])
    report = {
        "end_to_end": end_to_end,
        "aliases": {
            "cell_p50_ms": "p50_ms",
            "cell_p99_ms": "p99_ms",
        },
        "extra": {
            "pka_error_pct": (pka_error, "%"),
            "failed_ratio": (failed / attempted, "ratio"),
            "passes": len(all_passes),
            "cells_per_pass": len(cells),
            "cells_ranked": len(ref_cell_ms),
            "cells_beyond_p99": beyond(len(ref_cell_ms), 99),
            "setup_samples_s": runner.setup_samples,
            "raw_setup_samples_s": runner.raw_setup_samples,
            "fill_s": fill_s,
            "raw_fill_s": fill["exited_after_s"] if fill is not None else 0.0,
            "raw_wall_s": (median(walls), "s"),
            "raw_cell_p50_ms": (percentile(raw_cell_ms, 50), "ms"),
            "raw_cell_p99_ms": (percentile(raw_cell_ms, 99), "ms"),
            "probe_p50_ms": (percentile(probe_ms, 50), "ms"),
            "pass_walls_s": walls,
            "pass_ref_walls_s": [d["ref_wall_s"] for d in untraced],
        },
        "checks": checks,
        "correct": all(value == 0 for value in checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "counts": {"cells": len(cells), "passes": len(all_passes), "workloads": len(pairs)},
    }
    if trace:
        report["per_layer"] = sweep_layers(traced, untraced, pka_error)
    return report


def pka_error_pct(cycles: dict) -> float:
    """Mean absolute error of pka_sim total cycles against silicon."""
    errors = [
        abs(pair["pka_sim"] - pair["silicon"]) / pair["silicon"] * 100.0
        for pair in cycles.values()
        if "pka_sim" in pair and pair.get("silicon")
    ]
    return sum(errors) / len(errors) if errors else float("nan")


def sweep_layers(traced: list[dict], untraced: list[dict], pka_error: float) -> dict:
    """Per-layer metrics, averaged over the traced passes of one run."""
    n = len(traced)

    def mean_of(getter) -> float:
        return sum(getter(document["trace"]) for document in traced) / n

    layers: dict[str, tuple[float, str]] = {}
    for metric in LAYER_SELF_TIMES:
        names = LAYER_SELF_TIMES[metric]
        layers[metric] = (
            mean_of(lambda t, names=names: sum(t["self_time"].get(k, 0.0) for k in names)),
            "s",
        )

    def count(name: str) -> float:
        return mean_of(lambda t: t["counts"].get(name, 0.0))

    def calls(name: str) -> float:
        return mean_of(lambda t: t["calls"].get(name, 0))

    def obs(name: str) -> float:
        return mean_of(lambda t: t["obs_counters"].get(name, 0.0))

    hits, misses = count("persistence.hits"), count("persistence.misses")
    des = calls("sim.des")
    memo_hits = calls("sim.run_kernel") - des
    # Means, like every layer figure here, so the attribution adds up.
    traced_wall = sum(d["wall_s"] for d in traced) / n
    untraced_wall = median(d["wall_s"] for d in untraced)
    traced_ref = median(d["ref_wall_s"] for d in traced)
    untraced_ref = median(d["ref_wall_s"] for d in untraced)
    layers.update(
        {
            "workloads.launches": (count("workloads.launches"), "count"),
            "persistence.hits": (hits, "count"),
            "persistence.misses": (misses, "count"),
            "persistence.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "persistence.bytes_written": (median(d["bytes_written"] for d in traced), "B"),
            "harness.memo_hits": (obs("harness.memo_hits"), "count"),
            "profiling.kernels": (count("profiling.kernels"), "count"),
            "pkp.windows_observed": (calls("pkp.monitor"), "count"),
            "pkp.stopped_early_ratio": (
                count("pkp.stopped_early") / count("pkp.kernels") if count("pkp.kernels") else 0.0,
                "ratio",
            ),
            "sim.kernels_simulated": (des, "count"),
            "sim.kernel_memo_hit_ratio": (
                memo_hits / (memo_hits + des) if memo_hits + des else 0.0, "ratio"
            ),
            "sim.host_us_per_kinst": (
                layers["sim.full_s"][0] * 1e6 / (count("sim.warp_instructions") / 1000.0)
                if count("sim.warp_instructions")
                else 0.0,
                "us",
            ),
            "silicon.kernels": (count("silicon.kernels"), "count"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_pct": ((traced_ref - untraced_ref) / untraced_ref * 100.0, "%"),
            "trace.unattributed_pct": (layers["harness.self_s"][0] / traced_wall * 100.0, "%"),
            "trace.attributed_residual_s": (
                traced_wall - sum(value for name, (value, unit) in layers.items() if unit == "s"),
                "s",
            ),
            "trace.spans": (mean_of(lambda t: t["spans"]), "count"),
            "pka_error_pct": (pka_error, "%"),
        }
    )
    sources: dict[str, int] = {}
    cells = len(traced[0]["digests"])
    for value in traced[0]["trace"]["cell_sources"].values():
        sources[value] = sources.get(value, 0) + 1
    for source in ("cache", "computed"):
        layers[f"share.source.{source}"] = (sources.get(source, 0) / cells, "ratio")
    layers["share.source.not_applicable"] = (
        (cells - sum(sources.values())) / cells, "ratio"
    )
    return layers

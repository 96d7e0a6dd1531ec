"""Benchmark of record for the PKA reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Workloads: ``sweep_cold`` and ``sweep_warm`` (a corpus near-duplicate
sweep on an empty and on a filled run cache) and ``serve_mix`` (an
open-loop repeat / near-duplicate / fresh mix against ``pka serve``).
See perfbench/README.md for what each one measures and why.

Stdout is a human-readable report of every metric by name and unit,
then one provenance line, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A failed output check still prints that line (``correct: false``) and
exits 1; a checkout without the program's sources exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (
    BenchmarkError,
    fresh_workdir,
    provenance,
    require_program,
    write_record,
)

WORKLOADS = ("sweep_cold", "sweep_warm", "serve_mix")

#: End-to-end metrics every workload reports (the gated set).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics, in report order.  A workload that does not exercise
#: a layer reports 0 for it (see README.md, "Layers and workloads").
PER_LAYER = {
    # workloads
    "workloads.build_s": "s",
    "workloads.launches": "count",
    # analysis.persistence
    "persistence.digest_s": "s",
    "persistence.get_s": "s",
    "persistence.put_s": "s",
    "persistence.hits": "count",
    "persistence.misses": "count",
    "persistence.hit_ratio": "ratio",
    "persistence.bytes_written": "B",
    # analysis.harness
    "harness.self_s": "s",
    "harness.memo_hits": "count",
    # profiling
    "profiling.detailed_s": "s",
    "profiling.kernels": "count",
    # core.pks / core.two_level
    "pks.characterize_s": "s",
    "two_level.s": "s",
    # core.pkp
    "pkp.s": "s",
    "pkp.windows_observed": "count",
    "pkp.stopped_early_ratio": "ratio",
    # sim
    "sim.full_s": "s",
    "sim.kernels_simulated": "count",
    "sim.kernel_memo_hit_ratio": "ratio",
    "sim.host_us_per_kinst": "us",
    # sim.silicon
    "silicon.s": "s",
    "silicon.kernels": "count",
    # baselines.tbpoint + mlkit
    "tbpoint.select_s": "s",
    "mlkit.merge_tree_s": "s",
    "tbpoint.simulate_s": "s",
    "mlkit.kmeans_s": "s",
    # baselines.first_n
    "first_n.s": "s",
    # service.server (from the driver)
    "server.submit_ms.repeat": "ms",
    "server.submit_ms.neardup": "ms",
    "server.submit_ms.fresh": "ms",
    "server.poll_ms": "ms",
    "server.metricsz_ms_per_kjob": "ms",
    # service.scheduler / queue
    "scheduler.queue_wait_ms.p50": "ms",
    "scheduler.queue_wait_ms.p99": "ms",
    "scheduler.service_ms.p50": "ms",
    "scheduler.dedup_ratio": "ratio",
    "scheduler.shed": "count",
    "scheduler.mislabeled_estimates": "count",
    # analysis.semcache + predict
    "estimator.answered_ratio": "ratio",
    "semcache.lookups": "count",
    "semcache.transfers": "count",
    "semcache.escalations": "count",
    "predict.lookups": "count",
    "predict.predictions": "count",
    "predict.escalations": "count",
    "estimator.bound_violations": "count",
    # service.journal
    "journal.bytes_per_job": "B",
    # obs tracer and job registry
    "server.rss_mib_per_kjob": "MiB",
    # driver
    "driver.late_p99_ms": "ms",
    "driver.wait_s": "s",
    "driver.submit_s": "s",
    "driver.self_s": "s",
    # service classes and fidelity
    "job_p50_ms.repeat": "ms",
    "job_p50_ms.neardup": "ms",
    "job_p50_ms.fresh": "ms",
    "scrape_p50_ms": "ms",
    "estimate_error_pct": "%",
    "pka_error_pct": "%",
    # shares
    "share.class.repeat": "ratio",
    "share.class.neardup": "ratio",
    "share.class.fresh": "ratio",
    "share.source.cache": "ratio",
    "share.source.transfer": "ratio",
    "share.source.predicted": "ratio",
    "share.source.computed": "ratio",
    "share.source.not_applicable": "ratio",
    # the trace itself
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.attributed_residual_s": "s",
    "trace.spans": "count",
}

#: The end-to-end figures printed for each workload, by the names users
#: know them by; ``aliases`` map a name onto the gated metric it is.
PRINTED_TABLE = {
    "sweep_cold": ("setup_s", "wall_s", "cell_p50_ms", "cell_p99_ms", "peak_rss_mib",
                   "failed_ratio", "pka_error_pct"),
    "sweep_warm": ("setup_s", "wall_s", "cell_p50_ms", "cell_p99_ms", "peak_rss_mib",
                   "failed_ratio", "pka_error_pct"),
    "serve_mix": ("setup_s", "job_p50_ms", "job_p99_ms", "job_p50_ms.repeat",
                  "job_p50_ms.neardup", "job_p50_ms.fresh", "scrape_p50_ms",
                  "peak_rss_mib", "failed_ratio", "estimate_error_pct"),
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = fresh_workdir(workload)
    if workload == "serve_mix":
        from serve_mix import run_serve

        return run_serve(seed, seconds, trace, workdir)
    from sweeps import run_sweep

    return run_sweep(workload, seed, seconds, trace, workdir)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(workload: str, report: dict, trace: bool) -> None:
    print(f"== perfbench {workload} ==")
    values = dict(report["end_to_end"])
    values.update(report["extra"])
    aliases = report.get("aliases", {})
    print("-- end-to-end --")
    for name in PRINTED_TABLE[workload]:
        entry = values.get(aliases.get(name, name))
        if isinstance(entry, tuple):
            print(f"  {name:34s} {_fmt(entry[0]):>14s} {entry[1]}")
    print("-- run --")
    for name, value in report["extra"].items():
        if isinstance(value, tuple):
            print(f"  {name:34s} {_fmt(value[0]):>14s} {value[1]}")
        else:
            print(f"  {name:34s} {_fmt(value)}")
    print(f"  {'checks':34s} {json.dumps(report['checks'], sort_keys=True)}")
    if trace:
        print("-- per layer --")
        for name, (value, unit) in report["per_layer"].items():
            print(f"  {name:34s} {_fmt(value):>14s} {unit}")


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        measured = report.get("per_layer", {})
        metrics = {
            name: {"value": float(measured[name][0]) if name in measured else 0.0, "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(report["end_to_end"][name][0]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        require_program()
        report = run_workload(args.workload, args.seed, args.seconds, trace)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    unknown = set(report.get("per_layer", {})) - set(PER_LAYER)
    if unknown:
        print(f"perfbench: unregistered per-layer metrics {sorted(unknown)}", file=sys.stderr)
        return 2
    print_report(args.workload, report, trace)
    line = result_line(report, trace)
    record = {
        "provenance": provenance(args.workload, args.seed, trace, report["counts"]),
        "result": line,
        "report": report,
    }
    write_record(args.workload, args.seed, trace, record)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

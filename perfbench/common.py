"""Shared helpers: paths, statistics, child processes and provenance."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark measures (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
#: Scratch space for caches, logs and job files (see fresh_workdir).
WORK_ROOT = ROOT / ".perfbench_work"
#: Full per-run records (metrics, checks, shares, provenance) and the
#: spans of traced runs.
RESULTS_DIR = ROOT / ".perfbench_results"

#: Exactly the seven per-workload cells the sweeps evaluate on Volta.
SWEEP_METHODS = (
    "silicon",
    "selection",
    "pka_sim",
    "pks_sim",
    "full_sim",
    "first_1b",
    "tbpoint_sim",
)
#: Cells left out of the sweeps: one TBPoint merge tree that alone costs
#: 23-32 s, more than a whole run may take (see perfbench/README.md).
SWEEP_EXCLUDED = {("gramschmidt", "tbpoint_sim")}
#: Near-duplicate variants a seed chooses among; the reference records
#: every one of them.
ND_VARIANTS = 8


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, failed child)."""


def program_env() -> dict:
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def fresh_workdir(name: str) -> Path:
    """A new, empty directory for one run's caches, logs and job files.

    Runs never delete their work directories.  On an ext4 volume mounted
    with ``discard`` (as the hosts this was built on are), deleting a
    few thousand files slows every file creation for tens of seconds
    afterwards: 60-75 us per cache entry without deletions, 700-1000 us
    right after them.  One run's clean-up would then leak into the next
    run's timings.  ``.perfbench_work/`` is ignored by git; remove it by
    hand when no benchmark is running.
    """
    path = WORK_ROOT / f"{name}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def run_child(args: list[str], timeout: float) -> None:
    """Run one Python child to completion, killing it on timeout."""
    proc = subprocess.Popen(
        [sys.executable, *args], env=program_env(), cwd=str(ROOT),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"child {args[0]} exceeded {timeout:.0f}s")
    if proc.returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise BenchmarkError(f"child {args[0]} exited {proc.returncode}: {' | '.join(tail)}")


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; p99 of n samples leaves n - ceil(0.99 n)
    samples beyond it."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the nearest-rank percentile q."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


def src_digest() -> str:
    """Digest of every program source file, identifying the measured code
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, trace: bool, counts: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "src_digest": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "counts": counts,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


SPAN_FIELDS = ("id", "parent", "name", "start", "end", "cell")


def write_spans(name: str, spans: list[tuple]) -> Path:
    """Write one traced pass's spans as JSON lines next to the run records."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
    return path


def write_record(workload: str, seed: int, trace: bool, record: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return path

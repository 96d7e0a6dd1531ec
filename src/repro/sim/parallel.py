"""Parallel execution backends for the simulation substrate.

The paper's pitch is tractability, and per-kernel simulation is
embarrassingly parallel: every distinct (kernel spec, grid) pair is an
independent, deterministic computation.  This module provides the
execution backends the rest of the stack fans work out through:

* :class:`SerialBackend` — in-process, in-order execution (the default);
* :class:`ProcessPoolBackend` — a ``ProcessPoolExecutor`` fan-out with a
  *deterministic reduce*: results always come back in submission order,
  so callers accumulate them exactly as the serial path would and
  parallel results are bit-identical to serial ones.

Workers are plain module-level functions over picklable payloads
(frozen dataclasses all the way down), with per-process caches so one
worker builds its :class:`~repro.sim.simulator.Simulator` or
:class:`~repro.sim.silicon.SiliconExecutor` once and reuses it across
batches.

Backends are specified as ``None``/"serial" (serial), "auto"/0 (process
pool, one worker per CPU), an integer worker count, or a ready-made
backend object; :func:`resolve_backend` normalizes all of these.

On top of the order-preserving ``map_tasks`` sits the **fault-tolerant
runtime**: ``run_tasks`` executes every task under a
:class:`FaultPolicy` (bounded retries with deterministic seeded
exponential backoff, an optional wall-clock timeout) and returns one
:class:`TaskOutcome` per task — a value or a structured
:class:`TaskFailure` — instead of aborting the whole batch on the first
problem.  The pool backend additionally detects dead workers: a
``BrokenProcessPool`` round is re-run at single-task granularity until
the poison task is isolated, charged a :class:`~repro.errors.WorkerCrashError`
and (once retries are exhausted) quarantined, while every innocent
bystander task is recomputed for free.  Hung tasks past the policy
timeout have their workers terminated and are retried the same way.
Recovery never reorders results, so the bit-identical serial == parallel
guarantee holds for every non-quarantined task.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    TaskFailureError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.obs import ObsSnapshot, capture_tracer, get_tracer, obs_count, obs_span
from repro.sim.faults import DEFAULT_HANG_SECONDS, FaultPlan, run_with_fault

__all__ = [
    "FAIL_FAST",
    "ExecutionBackend",
    "FaultPolicy",
    "ProcessPoolBackend",
    "SerialBackend",
    "TaskFailure",
    "TaskOutcome",
    "auto_worker_count",
    "chunked",
    "resolve_backend",
]


def auto_worker_count() -> int:
    """Worker count for ``jobs="auto"``: one per available CPU."""
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Fault policy and task outcomes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPolicy:
    """How the runtime treats a failing task.

    ``max_retries`` bounds how many times one task is re-attempted after
    its first failure; ``timeout_seconds`` bounds the wall clock one
    attempt may consume (``None`` disables the watchdog).  Backoff
    between attempts grows exponentially with a *deterministic seeded
    jitter*: the jitter for ``(task, attempt)`` is a pure function of
    ``jitter_seed``, so a replayed sweep sleeps exactly as long as the
    original did and stays reproducible.

    Timeout enforcement differs by backend, by necessity: the process
    pool enforces it preemptively (hung workers are terminated), the
    serial backend post-hoc (an attempt that returns after its deadline
    is discarded and classified as a timeout).  Both classify the task
    identically, which is what the serial == parallel guarantee needs.
    """

    max_retries: int = 2
    timeout_seconds: float | None = None
    backoff_base_seconds: float = 0.02
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive or None")
        if self.backoff_base_seconds < 0:
            raise ConfigurationError("backoff_base_seconds must be >= 0")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_seconds(self, task_index: int, attempt: int) -> float:
        """Sleep before re-attempting ``task_index`` after ``attempt`` failed.

        Exponential in the attempt number, with a jitter fraction drawn
        deterministically from ``sha256(jitter_seed, task_index, attempt)``
        — no shared clock, no RNG state, same value on every replay.
        """
        base = self.backoff_base_seconds * self.backoff_multiplier ** (attempt - 1)
        seed = f"{self.jitter_seed}:{task_index}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(seed).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + self.jitter_fraction * fraction)

    def hang_seconds(self) -> float:
        """How long an injected hang sleeps when the fault doesn't say."""
        if self.timeout_seconds is None:
            return DEFAULT_HANG_SECONDS
        return self.timeout_seconds * 1.5


#: Zero retries, no timeout: the policy ``map_tasks`` runs under, which
#: preserves its historical fail-fast semantics exactly.
FAIL_FAST = FaultPolicy(max_retries=0, backoff_base_seconds=0.0)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task's final, post-retry failure.

    ``kind`` is the runtime's classification — ``"exception"`` (the task
    body raised), ``"timeout"`` (an attempt outlived the policy
    deadline) or ``"crash"`` (the worker process died) — and
    ``error_type``/``message`` describe the last underlying error.
    The record is plain data: it serializes into sweep manifests and
    reconstructs a typed exception via :meth:`to_error`.
    """

    index: int
    label: str
    kind: str
    error_type: str
    message: str
    attempts: int

    def to_error(self) -> TaskFailureError:
        """The typed exception equivalent of this record."""
        if self.kind == "timeout":
            cls: type[TaskFailureError] = TaskTimeoutError
        elif self.kind == "crash":
            cls = WorkerCrashError
        else:
            cls = RetryExhaustedError
        return cls(
            f"{self.label}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})",
            task_index=self.index,
            task_label=self.label,
            attempts=self.attempts,
        )


@dataclass
class TaskOutcome:
    """One task's result under ``run_tasks``: a value or a failure.

    ``exception`` carries the original in-flight exception object for
    strict re-raising (parent-side only; excluded from equality so
    outcomes compare on what they *mean*).
    """

    index: int
    label: str
    value: Any = None
    failure: TaskFailure | None = None
    exception: BaseException | None = field(
        default=None, compare=False, repr=False
    )
    #: Worker-side spans/counters captured while the task ran (pool
    #: backend with tracing enabled only).  Excluded from equality:
    #: telemetry must never break the bit-identical serial == parallel
    #: comparison.
    obs: ObsSnapshot | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.failure is None


class _TaskState:
    """Mutable bookkeeping for one task across retry rounds."""

    __slots__ = ("index", "item", "label", "attempt", "outcome")

    def __init__(self, index: int, item: Any, label: str) -> None:
        self.index = index
        self.item = item
        self.label = label
        self.attempt = 1
        self.outcome: TaskOutcome | None = None


def _labels_for(work: Sequence[Any], labels: Sequence[str] | None) -> list[str]:
    if labels is None:
        return [f"task {index}" for index in range(len(work))]
    labels = list(labels)
    if len(labels) != len(work):
        raise ConfigurationError(
            f"got {len(labels)} labels for {len(work)} tasks"
        )
    return labels


def _raise_outcome(outcome: TaskOutcome) -> None:
    """Strict mode: re-raise a failed outcome as the caller should see it.

    A plain exception that was never retried surfaces with its original
    type and message (the historical ``map_tasks`` contract); everything
    else surfaces as the typed :class:`~repro.errors.TaskFailureError`
    subclass, chained to the underlying cause when one was captured.
    """
    failure = outcome.failure
    assert failure is not None
    if (
        failure.kind == "exception"
        and failure.attempts == 1
        and outcome.exception is not None
    ):
        raise outcome.exception
    if outcome.exception is not None:
        raise failure.to_error() from outcome.exception
    raise failure.to_error()


def _classify(exc: BaseException) -> str:
    return "crash" if isinstance(exc, WorkerCrashError) else "exception"


def _final_failure(
    state: _TaskState, kind: str, exc: BaseException | None
) -> TaskFailure:
    if exc is None:
        if kind == "timeout":
            error_type, message = "TaskTimeoutError", "attempt exceeded the policy timeout"
        else:
            error_type, message = "WorkerCrashError", "worker process died mid-task"
    else:
        error_type, message = type(exc).__name__, str(exc)
    return TaskFailure(
        index=state.index,
        label=state.label,
        kind=kind,
        error_type=error_type,
        message=message,
        attempts=state.attempt,
    )


def _observed_pool_task(payload: tuple) -> tuple[Any, ObsSnapshot | None]:
    """Worker: run one fault-wrapped task, optionally capturing telemetry.

    ``payload`` is ``((fn, item, fault, attempt, True), label, capture)``.
    With ``capture`` set (the parent's tracer was enabled at submission),
    the task runs under an isolated tracer and its spans/counters are
    shipped back alongside the value; the parent merges them into its own
    timeline and attaches them to the :class:`TaskOutcome`.  The inner
    payload is exactly what :func:`~repro.sim.faults.run_with_fault`
    expects, so fault-injection semantics are untouched.
    """
    inner, label, capture = payload
    if not capture:
        return run_with_fault(inner), None
    attempt = inner[3]
    with capture_tracer() as tracer:
        with tracer.span("task", label=label, attempt=attempt, worker=os.getpid()):
            value = run_with_fault(inner)
        return value, tracer.snapshot()


def _run_tasks_inline(
    fn: Callable[[Any], Any],
    work: Sequence[Any],
    policy: FaultPolicy,
    labels: Sequence[str] | None,
    fault_plan: FaultPlan | None,
    strict: bool,
    on_outcome: Callable[[TaskOutcome], None] | None = None,
    in_worker: bool = False,
) -> list[TaskOutcome]:
    """The in-process fault-tolerant loop both backends share.

    Used directly by :class:`SerialBackend` and as the pool backend's
    degenerate path (one task, or one worker).  ``in_worker`` defaults to
    False, so injected crashes are simulated as
    :class:`~repro.errors.WorkerCrashError` instead of taking the caller
    down; fleet worker processes pass True (via the harness's
    ``crash_in_process``) so a "crash" fault genuinely kills them and
    exercises the supervisor's dead-worker recovery.
    """
    names = _labels_for(work, labels)
    outcomes: list[TaskOutcome] = []
    for index, item in enumerate(work):
        state = _TaskState(index, item, names[index])
        fault = (
            fault_plan.resolved(index, policy.hang_seconds())
            if fault_plan
            else None
        )
        while True:
            started = time.monotonic()
            try:
                with obs_span("task", label=state.label, attempt=state.attempt):
                    value = run_with_fault(
                        (fn, item, fault, state.attempt, in_worker)
                    )
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                kind, last_exc = _classify(exc), exc
            else:
                elapsed = time.monotonic() - started
                if (
                    policy.timeout_seconds is not None
                    and elapsed > policy.timeout_seconds
                ):
                    kind, last_exc = "timeout", None
                else:
                    state.outcome = TaskOutcome(index, state.label, value=value)
                    break
            if state.attempt < policy.max_attempts:
                time.sleep(policy.backoff_seconds(index, state.attempt))
                state.attempt += 1
                obs_count("tasks.retries")
                continue
            obs_count("tasks.quarantined")
            state.outcome = TaskOutcome(
                index,
                state.label,
                failure=_final_failure(state, kind, last_exc),
                exception=last_exc,
            )
            break
        if on_outcome is not None:
            on_outcome(state.outcome)
        if strict and not state.outcome.ok:
            _raise_outcome(state.outcome)
        outcomes.append(state.outcome)
    return outcomes


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can map a picklable task over items, in order."""

    jobs: int

    def map_tasks(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[Any]:
        """Apply ``fn`` to every item; results in item order."""
        ...


class SerialBackend:
    """In-process execution: the reference the pool must reproduce."""

    jobs = 1

    def map_tasks(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[Any]:
        return [fn(item) for item in items]

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        policy: FaultPolicy | None = None,
        labels: Sequence[str] | None = None,
        fault_plan: FaultPlan | None = None,
        strict: bool = False,
        on_outcome: Callable[[TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Fault-tolerant in-order execution; see :class:`FaultPolicy`.

        ``on_outcome`` is invoked once per task, as its outcome is
        decided — the hook the serving layer uses to complete jobs at
        task granularity instead of batch granularity.
        """
        return _run_tasks_inline(
            fn, list(items), policy or FAIL_FAST, labels, fault_plan, strict,
            on_outcome,
        )

    def close(self) -> None:
        """Nothing to release; present for backend-lifecycle symmetry."""

    def __repr__(self) -> str:
        return "SerialBackend()"


class ProcessPoolBackend:
    """Process-pool fan-out with a deterministic, order-preserving reduce.

    Tasks are submitted in item order and results gathered in the same
    order regardless of completion order, so any reduction the caller
    performs over the returned list happens exactly as it would have
    serially.  If several workers fail, the exception of the
    *earliest-submitted* failing task is raised — again independent of
    scheduling — and it carries the worker's original type and message.
    Pool-infrastructure failures are re-raised as :mod:`repro.errors`
    types at this boundary: a dead worker surfaces as
    :class:`~repro.errors.WorkerCrashError` naming the task that killed
    it (isolated by re-running the broken round at single-task
    granularity), a blown deadline as
    :class:`~repro.errors.TaskTimeoutError`.
    """

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ConfigurationError("jobs must be >= 1 (or None for auto)")
        self.jobs = jobs if jobs is not None else auto_worker_count()

    def map_tasks(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[Any]:
        work = list(items)
        if len(work) <= 1 or self.jobs == 1:
            # Nothing to fan out; run inline (identical semantics, no
            # pool startup cost).
            return [fn(item) for item in work]
        results = []
        for outcome in self.run_tasks(fn, work, policy=FAIL_FAST):
            if not outcome.ok:
                _raise_outcome(outcome)
            results.append(outcome.value)
        return results

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        policy: FaultPolicy | None = None,
        labels: Sequence[str] | None = None,
        fault_plan: FaultPlan | None = None,
        strict: bool = False,
        on_outcome: Callable[[TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Fault-tolerant fan-out: retries, timeouts, crash isolation.

        Pending tasks run in rounds.  A round that loses a worker
        (``BrokenProcessPool``) cannot tell which of its in-flight tasks
        was responsible, so the unresolved tasks are re-run one per pool
        — the poison task identifies itself by crashing alone, is
        charged the attempt, and every bystander completes unharmed.
        Tasks still running at the policy deadline have their workers
        terminated and are charged a timeout.  Charged tasks retry with
        deterministic backoff until the policy quarantines them.
        """
        policy = policy or FAIL_FAST
        work = list(items)
        names = _labels_for(work, labels)
        if len(work) <= 1 or self.jobs == 1:
            return _run_tasks_inline(
                fn, work, policy, names, fault_plan, strict, on_outcome
            )
        states = [
            _TaskState(index, item, names[index])
            for index, item in enumerate(work)
        ]
        pending: list[_TaskState] = list(states)
        isolation: list[_TaskState] = []
        while pending or isolation:
            if isolation:
                # A broken round with several unresolved tasks: re-run
                # them at single-task granularity to find the poison.
                batch, isolation = [isolation[0]], isolation[1:]
            else:
                batch, pending = pending, []
            statuses = self._run_round(fn, batch, policy, fault_plan)
            for state, (status, payload) in zip(batch, statuses, strict=True):
                if status == "ok":
                    value, shipped = payload
                    if shipped is not None:
                        get_tracer().merge(shipped)
                    state.outcome = TaskOutcome(
                        state.index, state.label, value=value, obs=shipped
                    )
                    if on_outcome is not None:
                        on_outcome(state.outcome)
                    continue
                if status == "suspect":
                    isolation.append(state)  # uncharged: maybe innocent
                    continue
                if status == "requeue":
                    pending.append(state)  # uncharged teardown victim
                    continue
                kind = status  # "error" | "crash" | "timeout"
                exc = payload if status == "error" else None
                kind = _classify(exc) if exc is not None else kind
                if state.attempt < policy.max_attempts:
                    time.sleep(policy.backoff_seconds(state.index, state.attempt))
                    state.attempt += 1
                    obs_count("tasks.retries")
                    pending.append(state)
                    continue
                obs_count("tasks.quarantined")
                state.outcome = TaskOutcome(
                    state.index,
                    state.label,
                    failure=_final_failure(state, kind, exc),
                    exception=exc,
                )
                if on_outcome is not None:
                    on_outcome(state.outcome)
        outcomes = sorted(
            (state.outcome for state in states), key=lambda o: o.index
        )
        if strict:
            for outcome in outcomes:
                if not outcome.ok:
                    _raise_outcome(outcome)
        return outcomes

    def _run_round(
        self,
        fn: Callable[[Any], Any],
        states: Sequence[_TaskState],
        policy: FaultPolicy,
        fault_plan: FaultPlan | None,
    ) -> list[tuple[str, Any]]:
        """One pool lifetime over ``states``.

        Returns, per state and in state order, one of ``("ok", value)``,
        ``("error", exception)``, ``("timeout", None)`` (the task's own
        deadline expired), ``("crash", None)`` (exactly one unresolved
        task in a broken pool — it is the culprit), ``("suspect", None)``
        (several unresolved tasks in a broken pool; the caller must
        isolate) or ``("requeue", None)`` (an innocent task torn down
        with the pool when a *different* task hung; re-run uncharged).

        The timeout clock for each task starts when its future is first
        *observed executing* — not at submission — so queueing behind a
        full pool never counts against a task's budget and a large
        batch cannot mass-expire.  ``Future.running()`` alone is not
        that signal: the pool flips it when a work item enters the call
        queue, which buffers one item beyond the worker count.  Worker
        pickup is FIFO, however, so the futures actually on a worker are
        always the earliest ``max_workers`` unfinished ones in
        submission order; only those can start their clocks.
        Observation happens on a polling loop, so enforcement lags the
        true deadline by at most one poll interval.
        """
        workers = min(self.jobs, len(states))
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=self._context())
        results: dict[int, tuple[str, Any]] = {}
        futures: dict[Future, _TaskState] = {}
        timed_out: set[Future] = set()
        broken: list[_TaskState] = []
        capture = get_tracer().enabled
        try:
            for state in states:
                fault = (
                    fault_plan.resolved(state.index, policy.hang_seconds())
                    if fault_plan
                    else None
                )
                future = pool.submit(
                    _observed_pool_task,
                    (
                        (fn, state.item, fault, state.attempt, True),
                        state.label,
                        capture,
                    ),
                )
                futures[future] = state
            timeout = policy.timeout_seconds
            poll = None if timeout is None else max(0.01, min(0.05, timeout / 4))
            started_at: dict[Future, float] = {}
            ordered = list(futures)  # submission order
            unfinished = set(futures)
            while unfinished:
                _done, unfinished = wait(unfinished, timeout=poll)
                if timeout is None:
                    continue  # single blocking wait already drained
                now = time.monotonic()
                executing = [f for f in ordered if not f.done()][:workers]
                for future in executing:
                    if future not in started_at and future.running():
                        started_at[future] = now
                timed_out = {
                    future
                    for future in unfinished
                    if future in started_at and now - started_at[future] > timeout
                }
                if timed_out:
                    break
            for future, state in futures.items():
                if future in timed_out:
                    results[state.index] = ("timeout", None)
                elif not future.done():
                    # Torn down with the pool while another task hung.
                    results[state.index] = ("requeue", None)
                elif future.cancelled():
                    broken.append(state)
                else:
                    exc = future.exception()
                    if exc is None:
                        results[state.index] = ("ok", future.result())
                    elif isinstance(exc, BrokenExecutor):
                        broken.append(state)
                    else:
                        results[state.index] = ("error", exc)
            if broken:
                status = "crash" if len(broken) == 1 else "suspect"
                for state in broken:
                    results[state.index] = (status, None)
        finally:
            if timed_out:
                # Hung workers never return; kill them so shutdown's
                # join is immediate instead of waiting out the hang.
                for process in list(getattr(pool, "_processes", {}).values()):
                    try:
                        process.terminate()
                    except OSError:
                        pass
            pool.shutdown(wait=True, cancel_futures=True)
        return [results[state.index] for state in states]

    @staticmethod
    def _context():
        # Fork is the fast path and inherits loaded modules; fall back to
        # the platform default where fork is unavailable (e.g. Windows).
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else None)

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(jobs={self.jobs})"


def resolve_backend(
    spec: ExecutionBackend | str | int | None,
) -> ExecutionBackend:
    """Normalize a backend specification into a backend object.

    Accepts ``None``/""/"serial"/1 (serial), "auto"/0 (process pool with
    one worker per CPU), a positive integer worker count (as int or
    numeric string), or an object already implementing the backend
    protocol.
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, (SerialBackend, ProcessPoolBackend)):
        return spec
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("", "serial"):
            return SerialBackend()
        if text in ("auto", "process", "process-pool"):
            return ProcessPoolBackend()
        try:
            spec = int(text)
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown backend spec {text!r}; use 'serial', 'auto' or a "
                "worker count"
            ) from exc
    if isinstance(spec, int):
        if spec < 0:
            raise ConfigurationError("worker count must be >= 0")
        if spec == 0:
            return ProcessPoolBackend()
        if spec == 1:
            return SerialBackend()
        return ProcessPoolBackend(spec)
    if isinstance(spec, ExecutionBackend):
        return spec
    raise ConfigurationError(f"cannot interpret backend spec {spec!r}")


def chunked(items: Sequence[Any], n_chunks: int) -> list[list[Any]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, even chunks."""
    if n_chunks < 1:
        raise ConfigurationError("n_chunks must be >= 1")
    items = list(items)
    if not items:
        return []
    n_chunks = min(n_chunks, len(items))
    base, extra = divmod(len(items), n_chunks)
    chunks: list[list[Any]] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


# ---------------------------------------------------------------------------
# Worker tasks.  Module-level so they pickle by reference; each keeps a
# per-process cache so one worker builds its executor once.
# ---------------------------------------------------------------------------

_WORKER_SIMULATORS: dict[tuple, Any] = {}
_WORKER_SILICON: dict[Any, Any] = {}

#: Batches submitted per worker — small enough to amortize dispatch,
#: large enough to balance uneven kernels across the pool.
CHUNKS_PER_WORKER = 4


def simulate_batch_task(payload: tuple) -> list:
    """Worker: fully simulate a batch of launches on one simulator.

    ``payload`` is ``(gpu, model_error, window_cycles, launches)``; the
    simulator is built once per (config, process) and reused.
    """
    gpu, model_error, window_cycles, launches = payload
    key = (gpu, model_error, window_cycles)
    simulator = _WORKER_SIMULATORS.get(key)
    if simulator is None:
        from repro.sim.simulator import Simulator

        simulator = Simulator(
            gpu, model_error=model_error, window_cycles=window_cycles
        )
        _WORKER_SIMULATORS[key] = simulator
    return [simulator.run_kernel(launch) for launch in launches]


def block_shard_task(payload: tuple) -> list:
    """Worker: per-slot partial finish times for one shard of a kernel.

    ``payload`` is ``(launch, perf, bias, slots, ranges)`` where
    ``ranges`` are contiguous wave-aligned fold chunks of the grid (see
    :func:`repro.sim.engine.fold_chunk_ranges`).  Returns the individual
    chunk partial-sum vectors, *not* their merge: the parent folds all
    chunks in global order so the accumulation order — and therefore the
    result, bitwise — is independent of the shard boundaries.
    """
    launch, perf, bias, slots, ranges = payload
    from repro.sim.engine import compute_shard_partials

    blocks = ranges[-1][1] - ranges[0][0]
    with obs_span(
        "sim.intra.shard",
        kernel=launch.spec.name,
        chunks=len(ranges),
        blocks=blocks,
    ):
        return compute_shard_partials(launch, perf, bias, slots, list(ranges))


def silicon_batch_task(payload: tuple) -> list[tuple]:
    """Worker: price a batch of launches on one silicon model.

    Returns ``(signature, grid_blocks, cycles, dram_bytes_per_block)``
    tuples — exactly the entries the parent's memo tables hold.
    """
    gpu, launches = payload
    executor = _WORKER_SILICON.get(gpu)
    if executor is None:
        from repro.sim.silicon import SiliconExecutor

        executor = SiliconExecutor(gpu)
        _WORKER_SILICON[gpu] = executor
    rows = []
    for launch in launches:
        rows.append(
            (
                launch.spec.signature(),
                launch.grid_blocks,
                executor.kernel_cycles(launch),
                executor.kernel_dram_bytes_per_block(launch),
            )
        )
    return rows

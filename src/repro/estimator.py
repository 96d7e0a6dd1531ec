"""Shared body of the estimators that answer a cell without simulating it.

The evaluation harness consults an ordered chain of estimators between
the exact digest cache and the DES: the similarity-transfer semantic
cache (:mod:`repro.analysis.semcache`), then the analytical + surrogate
prediction tiers (:mod:`repro.predict`).  Each decides for itself *how*
to answer and what it learns from a computed run; :class:`Estimator`
owns everything else they share:

* the lock that makes every public method thread-safe (the serving
  scheduler consults from request threads);
* the mtime-gated load/merge of the per-context state document the
  harness's run cache keeps under ``<cache>/<name>/`` (LRU-exempt like
  manifests), and its persistence after every ingestion, so worker
  processes sharing a cache directory pool what they learned;
* the lookup ledger — every consult is exactly one answer or one
  escalation with a typed reason, so ``answered + escalations ==
  lookups`` reconciles by construction — mirrored into ``obs`` counters
  under ``<name>.``;
* observed-error tracking: every served answer is remembered against
  its cell digest, and when a computed ground truth later arrives for
  that digest (estimation disabled, another process escalated) the
  realized error is recorded against the advertised bound.

Answers are frozen :class:`EstimatedResult` subclasses, memoized in
memory only and never written to the digest cache, and never ingested
back: the exact cache stays exact and no estimator learns from its own
output.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.gpu.architectures import GPUConfig
from repro.gpu.kernels import KernelLaunch
from repro.obs import obs_count
from repro.sim.simulator import ModelErrorConfig
from repro.sim.stats import AppRunResult

__all__ = ["CellQuery", "EstimatedResult", "Estimator", "result_source"]


@dataclass(frozen=True)
class EstimatedResult(AppRunResult):
    """An :class:`AppRunResult` answered by an estimator, not a simulator.

    ``simulated_cycles`` is zero.  ``source`` is the service's job
    ``source`` label for such answers and also the key of their wire
    block; ``error_bound`` is the advertised *relative* error bound on
    ``total_cycles``; ``tier`` names the answering sub-tier, if any.
    """

    source: ClassVar[str] = ""

    @property
    def error_bound(self) -> float:
        raise NotImplementedError

    @property
    def tier(self) -> str:
        return ""

    def wire(self) -> dict:
        """The JSON-ready block a job-result response carries."""
        raise NotImplementedError


def result_source(result: object) -> str:
    """The ``source`` label of a result the compute pipeline returned."""
    return result.source if isinstance(result, EstimatedResult) else "computed"


@dataclass(frozen=True)
class CellQuery:
    """One cell as the estimators see it."""

    workload: str
    method: str
    gpu: GPUConfig
    launches: list[KernelLaunch]
    model_error: ModelErrorConfig
    digest: str


class Estimator:
    """Lock, state persistence, ledger and observed error of one estimator.

    One instance serves one harness (one context fingerprint).
    Subclasses set the class attributes below and implement the answer
    rule (:meth:`_answer`), ingestion (:meth:`_ingest`), state
    (de)serialisation (:meth:`_dump_state` / :meth:`_merge_state`) and
    their snapshot extras (:meth:`_index_stats`).  ``ledger`` maps each
    snapshot counter (``lookups``, the answer and per-reason escalation
    keys, ``observations``) to its count.
    """

    #: ``/metricsz`` section, obs counter prefix and state-file kind.
    name: ClassVar[str]
    #: Bump when the state document layout changes; mismatched states
    #: are discarded (derived data — rebuilding only costs warm-up).
    state_version: ClassVar[int]
    #: Ledger key counting answered lookups.
    answered: ClassVar[str]
    #: Sub-tiers counted separately as ``<answered>_<tier>``.
    answer_tiers: ClassVar[tuple[str, ...]] = ()
    escalation_reasons: ClassVar[tuple[str, ...]]
    #: Snapshot key of the observed-error block.
    error_section: ClassVar[str]

    def __init__(self, config, run_cache, context: str) -> None:
        self.config = config
        self.run_cache = run_cache
        self.context = context
        self._answers: dict[str, tuple[float, float]] = {}
        self._lock = threading.RLock()
        self._loaded = False
        self._state_mtime: float | None = None
        self._answer_keys = (
            self.answered,
            *(f"{self.answered}_{tier}" for tier in self.answer_tiers),
        )
        self._escalation_keys = tuple(
            f"escalations_{reason}" for reason in self.escalation_reasons
        )
        self.ledger = dict.fromkeys(
            ("lookups", *self._answer_keys, *self._escalation_keys, "observations"),
            0,
        )
        self.observed_errors: list[float] = []
        self.observed_violations = 0

    # -- ledger ------------------------------------------------------------

    def _count(self, key: str) -> None:
        self.ledger[key] += 1
        obs_count(f"{self.name}.{key}")

    @property
    def escalations(self) -> int:
        return sum(self.ledger[key] for key in self._escalation_keys)

    def snapshot(self) -> dict:
        """JSON-ready metrics section (this estimator's ``/metricsz`` block).

        ``reconciles`` asserts the lookup ledger: every consult either
        answered or escalated, exactly.
        """
        with self._lock:
            ledger = self.ledger
            errors = list(self.observed_errors)
            return {
                "enabled": True,
                **self._index_stats(),
                "lookups": ledger["lookups"],
                **{key: ledger[key] for key in self._answer_keys},
                "escalations": self.escalations,
                **{key: ledger[key] for key in self._escalation_keys},
                "observations": ledger["observations"],
                "reconciles": ledger[self.answered] + self.escalations
                == ledger["lookups"],
                self.error_section: {
                    "samples": len(errors),
                    "observed_mean": float(np.mean(errors)) if errors else None,
                    "observed_max": float(max(errors)) if errors else None,
                    "violations": self.observed_violations,
                },
            }

    # -- consult / observe -------------------------------------------------

    def consult(self, query: CellQuery) -> EstimatedResult | None:
        """Try to answer a digest miss; None escalates.

        Counts exactly one lookup, and exactly one of answer /
        escalation, for every method this estimator covers.
        """
        if query.method not in self.config.methods:
            return None
        with self._lock:
            self._load_if_stale()
            self._count("lookups")
            answer = self._answer(query)
            if isinstance(answer, str):
                obs_count(f"{self.name}.escalations")
                self._count(f"escalations_{answer}")
                return None
            self._answers[query.digest] = (answer.total_cycles, answer.error_bound)
            self._count(self.answered)
            if answer.tier:
                self._count(f"{self.answered}_{answer.tier}")
            return answer

    def observe(
        self,
        query: CellQuery,
        result: AppRunResult,
        kernel_cycles: Callable[[], dict[tuple[int, int], float]] | None = None,
    ) -> None:
        """Ingest one *computed* run and persist the state.

        ``kernel_cycles`` lazily yields the DES's memoized per-kernel
        cycles for estimators that learn from them.  Estimated answers
        are never ingested.
        """
        if query.method not in self.config.methods:
            return
        if isinstance(result, EstimatedResult) or not self._admits(result):
            return
        with self._lock:
            self._load_if_stale()
            self._track_observed_error(query.digest, result)
            self._ingest(query, result, kernel_cycles)
            self._count("observations")
            self._persist()

    def _track_observed_error(self, digest: str, result: AppRunResult) -> None:
        answer = self._answers.pop(digest, None)
        if answer is None or result.total_cycles <= 0:
            return
        estimated, bound = answer
        error = abs(estimated - result.total_cycles) / result.total_cycles
        self.observed_errors.append(error)
        obs_count(f"{self.name}.observed_samples")
        if error > bound:
            self.observed_violations += 1
            obs_count(f"{self.name}.observed_violations")

    # -- persistence -------------------------------------------------------

    @staticmethod
    def _partition_key(method: str, gpu: GPUConfig) -> str:
        return f"{method}@{gpu.name}"

    def _load_if_stale(self) -> None:
        """Merge on-disk state written by other processes (mtime-gated)."""
        current = self.run_cache.state_mtime(self.name, self.context)
        if self._loaded and current == self._state_mtime:
            return
        document = self.run_cache.get_state(self.name, self.context)
        self._loaded = True
        self._state_mtime = current
        if document and document.get("version") == self.state_version:
            self._merge_state(document.get("partitions", {}))

    def _persist(self) -> None:
        self.run_cache.put_state(
            self.name,
            self.context,
            {
                "version": self.state_version,
                "context": self.context,
                "partitions": self._dump_state(),
            },
        )
        self._state_mtime = self.run_cache.state_mtime(self.name, self.context)

    # -- subclass hooks ----------------------------------------------------

    def _index_stats(self) -> dict:
        """Config and index-size keys leading the snapshot."""
        raise NotImplementedError

    def _answer(self, query: CellQuery) -> EstimatedResult | str:
        """An answer, or the escalation reason (one of
        ``escalation_reasons``)."""
        raise NotImplementedError

    def _admits(self, result: AppRunResult) -> bool:
        """Whether a computed result carries anything to learn from."""
        return result.total_cycles > 0

    def _ingest(self, query, result, kernel_cycles) -> None:
        raise NotImplementedError

    def _dump_state(self) -> dict:
        raise NotImplementedError

    def _merge_state(self, partitions: dict) -> None:
        raise NotImplementedError

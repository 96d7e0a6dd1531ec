"""Tests for the cross-workload semantic cache (similarity transfer).

What these tests pin down: a near-duplicate resubmission is answered by
transfer (no simulator run) with an error bound that holds against the
ground truth; dissimilar queries and over-loose bounds escalate to the
DES; transfer answers never touch the exact digest cache and never
become donors; the index round-trips through the run cache's state
document; and the lookup ledger reconciles exactly.
"""

from __future__ import annotations

import pytest

from repro.analysis import EvaluationHarness
from repro.analysis.semcache import SemanticCacheConfig, TransferResult
from repro.errors import ReproError

BASE = "atax"
NEAR = "atax~nd1"
FAR = "bfs1MW"


@pytest.fixture
def harness(tmp_path):
    return EvaluationHarness(
        backend="serial", cache_dir=tmp_path / "cache", semcache=True
    )


class TestTransfer:
    def test_near_duplicate_transfers_within_bound(self, harness, tmp_path):
        donor = harness.evaluation(BASE).pka_sim()
        assert donor is not None and not isinstance(donor, TransferResult)

        result = harness.evaluation(NEAR).pka_sim()
        assert isinstance(result, TransferResult)
        assert result.simulated_cycles == 0.0
        assert result.transferred_from == (BASE,)
        assert result.total_cycles > 0
        assert 0 < result.transfer_error_bound <= harness.semcache.config.max_error_bound

        # The advertised bound must hold against the ground truth a
        # semcache-disabled harness computes for the same cell.
        truth_harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "truth"
        )
        truth = truth_harness.evaluation(NEAR).pka_sim()
        error = abs(result.total_cycles - truth.total_cycles) / truth.total_cycles
        assert error <= result.transfer_error_bound

    def test_transfer_is_memoized_not_recomputed(self, harness):
        harness.evaluation(BASE).pka_sim()
        first = harness.evaluation(NEAR).pka_sim()
        again = harness.evaluation(NEAR).pka_sim()
        assert again is first  # memory memo, no second lookup
        assert harness.semcache.ledger["transfers"] == 1

    def test_digest_cache_stays_exact(self, harness):
        harness.evaluation(BASE).pka_sim()
        before = harness.run_cache.entry_count()
        result = harness.evaluation(NEAR).pka_sim()
        assert isinstance(result, TransferResult)
        digest = harness.cell_digest_for(NEAR, "pka_sim")
        # A transfer answer must never be written under the digest.
        assert harness.run_cache.get_run(digest) is None
        assert harness.run_cache.entry_count() == before

    def test_transfer_never_becomes_donor(self, harness):
        harness.evaluation(BASE).pka_sim()
        harness.evaluation(NEAR).pka_sim()
        snap = harness.semcache.snapshot()
        assert snap["index_apps"] == 1  # only the computed run donates
        assert snap["observations"] == 1

    def test_transfer_probe_public_path(self, harness):
        harness.evaluation(BASE).pka_sim()
        probed = harness.estimate_probe(NEAR, "pka_sim")
        assert isinstance(probed, TransferResult)
        # The probe memoizes: the accessor now serves the same object.
        assert harness.evaluation(NEAR).pka_sim() is probed

    def test_probe_returns_none_for_computed_cell(self, harness):
        donor = harness.evaluation(BASE).pka_sim()
        assert donor is not None
        assert harness.estimate_probe(BASE, "pka_sim") is None

    def test_nontransferable_method_bypasses(self, harness):
        assert harness.estimate_probe(BASE, "selection") is None
        assert harness.estimate_probe(BASE, "first_1b") is None
        assert harness.semcache.ledger["lookups"] == 0


class TestEscalation:
    def test_empty_index_escalates_coverage(self, harness):
        assert harness.estimate_probe(NEAR, "pka_sim") is None
        assert harness.semcache.ledger["escalations_coverage"] == 1

    def test_dissimilar_workload_escalates_coverage(self, harness):
        harness.evaluation(BASE).pka_sim()
        before = harness.semcache.ledger["escalations_coverage"]
        assert harness.estimate_probe(FAR, "pka_sim") is None
        assert harness.semcache.ledger["escalations_coverage"] == before + 1

    def test_tight_bound_escalates(self, tmp_path):
        config = SemanticCacheConfig(max_error_bound=0.1501, error_floor=0.15)
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=config
        )
        harness.evaluation(BASE).pka_sim()
        assert harness.estimate_probe(NEAR, "pka_sim") is None
        assert harness.semcache.ledger["escalations_bound"] == 1

    def test_ledger_reconciles(self, harness):
        harness.evaluation(BASE).pka_sim()
        harness.estimate_probe(NEAR, "pka_sim")  # transfer
        harness.estimate_probe(FAR, "pka_sim")  # coverage escalation
        snap = harness.semcache.snapshot()
        assert snap["reconciles"] is True
        assert snap["lookups"] == snap["transfers"] + snap["escalations"]
        assert snap["transfers"] == 1
        # The donor's own compute consulted an empty index (coverage),
        # then the FAR probe escalated on coverage again.
        assert snap["escalations_coverage"] == 2


class TestPersistence:
    def test_index_survives_harness_restart(self, tmp_path):
        first = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        first.evaluation(BASE).pka_sim()

        second = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        result = second.estimate_probe("atax~nd2", "pka_sim")
        assert isinstance(result, TransferResult)
        assert result.transferred_from == (BASE,)

    def test_state_file_is_lru_exempt_location(self, tmp_path):
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        harness.evaluation(BASE).pka_sim()
        state_dir = tmp_path / "cache" / "semcache"
        files = list(state_dir.glob("*.json"))
        assert len(files) == 1

    def test_memory_only_harness_still_transfers(self):
        harness = EvaluationHarness(backend="serial", semcache=True)
        harness.evaluation(BASE).pka_sim()
        result = harness.evaluation(NEAR).pka_sim()
        assert isinstance(result, TransferResult)

    def test_corrupt_state_is_discarded(self, tmp_path):
        first = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        first.evaluation(BASE).pka_sim()
        state_file = next((tmp_path / "cache" / "semcache").glob("*.json"))
        state_file.write_text("{not json", encoding="utf-8")
        second = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", semcache=True
        )
        # Corrupt state means an empty index: escalate, don't crash.
        assert second.estimate_probe(NEAR, "pka_sim") is None
        assert second.semcache.ledger["escalations_coverage"] == 1


class TestConfig:
    def test_defaults_resolve(self):
        config = EvaluationHarness(semcache=True).semcache.config
        assert config == SemanticCacheConfig()
        assert EvaluationHarness(semcache=None).semcache is None
        assert EvaluationHarness(semcache=False).semcache is None

    def test_threshold_override(self):
        from repro.cli import _harness_from_args, build_parser

        def semcache_config(*flags):
            args = build_parser().parse_args(["simulate", BASE, *flags])
            return _harness_from_args(args).semcache.config

        config = semcache_config("--semcache", "--transfer-threshold", "0.05")
        assert config.transfer_threshold == 0.05
        assert semcache_config("--semcache") == SemanticCacheConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transfer_threshold": 0.0},
            {"max_error_bound": -1.0},
            {"error_floor": -0.1},
            {"lipschitz": -1.0},
            {"safety_factor": 0.5},
            {"max_groups": 0},
            {"max_apps_per_partition": 0},
        ],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ReproError):
            SemanticCacheConfig(**kwargs)

    def test_harness_without_semcache_has_none(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "c")
        assert harness.semcache is None
        assert harness.estimate_probe(NEAR, "pka_sim") is None

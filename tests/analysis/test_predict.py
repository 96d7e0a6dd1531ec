"""Tests for the two-tier prediction subsystem.

What these tests pin down: a calibrated tier answers a cold near
duplicate without running the DES and the advertised relative error
bound holds against the ground truth a predict-disabled harness
computes; cold/coverage/bound escalations fall through to the DES and
produce bitwise-identical results to a predict-disabled run; prediction
answers never touch the exact digest cache and never train the tiers;
the calibration round-trips through the run cache's state document; and
the lookup ledger ``predictions + escalations == lookups`` reconciles
exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import EvaluationHarness
from repro.errors import NotFittedError, ReproError
from repro.gpu.architectures import VOLTA_V100
from repro.mlkit import SGDRegressor
from repro.predict import (
    CycleSurrogate,
    PredictConfig,
    PredictedResult,
    price_app,
)

#: Three completable apps to calibrate on (min_calibration defaults to 3).
TRAIN = ("fdtd2d", "atax", "backprop")
#: Near duplicate of a multi-group trained app: predictable once warm.
NEAR = "fdtd2d~nd1"
#: Train set whose kernel-group count clears the surrogate's row gate.
TRAIN_SURROGATE = ("fdtd2d", "atax", "gauss_208")


@pytest.fixture
def harness(tmp_path):
    return EvaluationHarness(
        backend="serial", cache_dir=tmp_path / "cache", predict=True
    )


def _warm(harness, names=TRAIN) -> None:
    for name in names:
        result = harness.evaluation(name).full_sim()
        assert result is not None
        assert not isinstance(result, PredictedResult)


class TestPrediction:
    def test_calibrated_near_duplicate_predicts_within_bound(
        self, harness, tmp_path
    ):
        _warm(harness)
        result = harness.evaluation(NEAR).full_sim()
        assert isinstance(result, PredictedResult)
        assert result.simulated_cycles == 0.0
        assert result.predicted_by in ("analytical", "surrogate")
        assert result.total_cycles > 0
        max_bound = harness.predict.config.max_error_bound
        assert 0 < result.prediction_error_bound <= max_bound

        truth_harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "truth"
        )
        truth = truth_harness.evaluation(NEAR).full_sim()
        error = abs(result.total_cycles - truth.total_cycles) / truth.total_cycles
        assert error <= result.prediction_error_bound

    def test_surrogate_tier_serves_when_tighter(self, tmp_path):
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", predict=True
        )
        _warm(harness, TRAIN_SURROGATE)
        result = harness.evaluation("atax~nd1").full_sim()
        assert isinstance(result, PredictedResult)
        assert result.predicted_by == "surrogate"

        truth_harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "truth"
        )
        truth = truth_harness.evaluation("atax~nd1").full_sim()
        error = abs(result.total_cycles - truth.total_cycles) / truth.total_cycles
        assert error <= result.prediction_error_bound

    def test_instructions_and_dram_are_exact(self, harness):
        # The closed form integrates the same per-block perf model the
        # engine does: instruction and DRAM totals are identities, only
        # cycles carry a residual.
        computed = harness.evaluation("atax").full_sim()
        launches = harness.evaluation("atax").launches("volta")
        estimate = price_app(launches, VOLTA_V100, harness.model_error)
        assert estimate.total_instructions == pytest.approx(
            computed.total_instructions
        )
        assert estimate.total_dram_bytes == pytest.approx(
            computed.total_dram_bytes
        )

    def test_prediction_is_memoized_not_recomputed(self, harness):
        _warm(harness)
        first = harness.evaluation(NEAR).full_sim()
        again = harness.evaluation(NEAR).full_sim()
        assert again is first

    def test_digest_cache_stays_exact(self, harness):
        _warm(harness)
        before = harness.run_cache.entry_count()
        result = harness.evaluation(NEAR).full_sim()
        assert isinstance(result, PredictedResult)
        digest = harness.cell_digest_for(NEAR, "full_sim")
        assert harness.run_cache.get_run(digest) is None
        assert harness.run_cache.entry_count() == before

    def test_prediction_never_trains_the_tiers(self, harness):
        _warm(harness)
        observations = harness.predict.ledger["observations"]
        result = harness.evaluation(NEAR).full_sim()
        assert isinstance(result, PredictedResult)
        assert harness.predict.ledger["observations"] == observations

    def test_predict_probe_public_path(self, harness):
        _warm(harness)
        probed = harness.estimate_probe(NEAR, "full_sim")
        assert isinstance(probed, PredictedResult)
        assert harness.evaluation(NEAR).full_sim() is probed

    def test_probe_returns_none_for_computed_cell(self, harness):
        _warm(harness)
        assert harness.estimate_probe(TRAIN[0], "full_sim") is None

    def test_nonpredictable_method_bypasses(self, harness):
        assert harness.estimate_probe("atax", "pka_sim") is None
        assert harness.estimate_probe("atax", "selection") is None
        assert harness.predict.ledger["lookups"] == 0


class TestEscalation:
    def test_cold_tiers_escalate(self, harness):
        assert harness.estimate_probe(NEAR, "full_sim") is None
        assert harness.predict.ledger["escalations_cold"] == 1

    def test_escalated_result_is_bitwise_identical(self, harness, tmp_path):
        # A cold consult escalates to the DES; the computed result must
        # equal a predict-disabled harness's bit for bit.
        escalated = harness.evaluation(NEAR).full_sim()
        assert not isinstance(escalated, PredictedResult)
        plain = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "plain"
        )
        baseline = plain.evaluation(NEAR).full_sim()
        assert escalated.total_cycles == baseline.total_cycles
        assert escalated.total_instructions == baseline.total_instructions
        assert escalated.total_dram_bytes == baseline.total_dram_bytes
        assert escalated.simulated_cycles == baseline.simulated_cycles

    def test_tight_bound_escalates(self, tmp_path):
        config = PredictConfig(max_error_bound=1e-6)
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", predict=config
        )
        _warm(harness)
        assert harness.estimate_probe(NEAR, "full_sim") is None
        assert harness.predict.ledger["escalations_bound"] == 1

    def test_ledger_reconciles(self, harness):
        _warm(harness)  # three cold escalations while calibrating
        harness.estimate_probe(NEAR, "full_sim")  # prediction
        snap = harness.predict.snapshot()
        assert snap["reconciles"] is True
        assert snap["lookups"] == snap["predictions"] + snap["escalations"]
        assert snap["predictions"] >= 1
        assert snap["escalations_cold"] == 3


class TestPersistence:
    def test_calibration_survives_harness_restart(self, tmp_path):
        first = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", predict=True
        )
        _warm(first)
        second = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", predict=True
        )
        result = second.estimate_probe(NEAR, "full_sim")
        assert isinstance(result, PredictedResult)

    def test_state_file_is_lru_exempt_location(self, tmp_path):
        harness = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", predict=True
        )
        _warm(harness, TRAIN[:1])
        files = list((tmp_path / "cache" / "predict").glob("*.json"))
        assert len(files) == 1

    def test_memory_only_harness_still_predicts(self):
        harness = EvaluationHarness(backend="serial", predict=True)
        _warm(harness)
        result = harness.evaluation(NEAR).full_sim()
        assert isinstance(result, PredictedResult)

    def test_corrupt_state_is_discarded(self, tmp_path):
        first = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", predict=True
        )
        _warm(first)
        state_file = next((tmp_path / "cache" / "predict").glob("*.json"))
        state_file.write_text("{not json", encoding="utf-8")
        second = EvaluationHarness(
            backend="serial", cache_dir=tmp_path / "cache", predict=True
        )
        # Corrupt state means cold tiers: escalate, don't crash.
        assert second.estimate_probe(NEAR, "full_sim") is None
        assert second.predict.ledger["escalations_cold"] == 1


class TestConfig:
    def test_defaults_resolve(self):
        config = EvaluationHarness(predict=True).predict.config
        assert config == PredictConfig()
        assert EvaluationHarness(predict=None).predict is None
        assert EvaluationHarness(predict=False).predict is None

    def test_bound_override(self):
        from repro.cli import _harness_from_args, build_parser

        def predict_config(*flags):
            args = build_parser().parse_args(["simulate", NEAR, *flags])
            return _harness_from_args(args).predict.config

        config = predict_config("--predict", "--predict-max-bound", "0.1")
        assert config.max_error_bound == 0.1
        assert predict_config("--predict") == PredictConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_error_bound": 0.0},
            {"error_floor": -0.1},
            {"safety_factor": 0.5},
            {"min_calibration": 0},
            {"min_training_rows": 0},
            {"coverage_radius": 0.0},
            {"lipschitz": -1.0},
            {"dispersion_prior": -0.1},
            {"max_samples": 0},
        ],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ReproError):
            PredictConfig(**kwargs)

    def test_harness_without_predict_has_none(self, tmp_path):
        harness = EvaluationHarness(backend="serial", cache_dir=tmp_path / "c")
        assert harness.predict is None
        assert harness.estimate_probe(NEAR, "full_sim") is None


class TestSurrogateModel:
    def test_regressor_learns_linear_map(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(200, 3))
        targets = features @ np.array([0.5, -0.2, 0.1]) + 0.3
        model = SGDRegressor(epochs=200).fit(features, targets)
        assert model.score(features, targets) > 0.95

    def test_regressor_raises_before_fit(self):
        with pytest.raises(NotFittedError):
            SGDRegressor().predict(np.zeros((1, 3)))

    def test_surrogate_untrained_returns_none(self):
        surrogate = CycleSurrogate(min_rows=4)
        assert surrogate.predict((1.0, 2.0)) is None
        assert surrogate.oof_error is None

    def test_surrogate_refit_is_deterministic(self):
        rng = np.random.default_rng(1)
        rows = [
            (tuple(rng.uniform(1, 100, size=4)), float(rng.normal(0, 0.1)))
            for _ in range(12)
        ]
        first = CycleSurrogate(min_rows=8)
        second = CycleSurrogate(min_rows=8)
        for counters, residual in rows:
            first.add_row(counters, residual)
            second.add_row(counters, residual)
        query = tuple(rng.uniform(1, 100, size=4))
        assert first.predict(query) == second.predict(query)
        assert first.oof_error == second.oof_error

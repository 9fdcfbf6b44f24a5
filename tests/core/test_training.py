"""Unit tests for picker training."""

import numpy as np
import pytest

from repro.api import PS3
from repro.core.training import (
    TrainingConfig,
    compute_training_data,
    regressor_feature_importance_by_category,
    train_picker_model,
)
from repro.errors import ConfigError
from repro.obs import get_registry, snapshot_delta


@pytest.fixture(scope="module")
def trained(tpch_ptable, tpch_queries, trained_ps3):
    # Reuse the session-trained system's model and data.
    return trained_ps3.model, trained_ps3.training_data


class TestTrainingData:
    def test_artifact_shapes(self, tpch_ptable, tpch_queries, trained_ps3):
        __, data = trained_ps3.model, trained_ps3.training_data
        n = tpch_ptable.num_partitions
        assert len(data.queries) == len(data.features) == len(data.contributions)
        for features, contributions in zip(data.features, data.contributions):
            assert features.shape[0] == n
            assert contributions.shape == (n,)
            assert np.all((contributions >= 0) & (contributions <= 1))

    def test_normalized_filled_after_training(self, trained):
        __, data = trained
        assert len(data.normalized) == len(data.features)

    def test_compute_without_training(
        self, tpch_ptable, trained_ps3, tpch_queries
    ):
        train, __ = tpch_queries
        data = compute_training_data(
            tpch_ptable, trained_ps3.feature_builder, train[:2]
        )
        assert data.normalized == []
        assert len(data.answers) == 2


class TestModel:
    def test_k_regressors_fitted(self, trained):
        model, __ = trained
        assert len(model.regressors) == TrainingConfig().num_models
        assert all(r.fitted for r in model.regressors)

    def test_thresholds_monotone(self, trained):
        model, __ = trained
        assert np.all(np.diff(model.thresholds) >= 0)
        assert model.thresholds[0] == 0.0

    def test_clustering_indices_full_without_selection(self, trained):
        model, __ = trained
        indices = model.clustering_feature_indices()
        assert indices.size == model.feature_builder.schema.dimension

    def test_clustering_indices_respect_exclusions(self, trained):
        model, __ = trained
        model.excluded_families = frozenset({"min(x)"})
        try:
            indices = model.clustering_feature_indices()
            schema = model.feature_builder.schema
            excluded = set(schema.family_indices("min(x)").tolist())
            assert excluded.isdisjoint(indices.tolist())
        finally:
            model.excluded_families = frozenset()

    def test_empty_training_set_rejected(self, tpch_ptable, trained_ps3):
        with pytest.raises(ConfigError):
            train_picker_model(tpch_ptable, trained_ps3.feature_builder, [])


class TestFeatureImportance:
    def test_categories_sum_to_100(self, trained):
        model, __ = trained
        shares = regressor_feature_importance_by_category(model)
        assert set(shares) == {"selectivity", "hh", "dv", "measure"}
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-6)
        assert all(v >= 0 for v in shares.values())


class TestConfigValidation:
    def test_bad_num_models(self):
        with pytest.raises(ConfigError):
            TrainingConfig(num_models=0)

    def test_bad_top_fraction(self):
        with pytest.raises(ConfigError):
            TrainingConfig(top_fraction=0.0)


class _SpanRecorder:
    """Profiler that keeps every closed span's stage and tags."""

    def __init__(self) -> None:
        self.spans = []

    def on_span_start(self, span) -> None:
        pass

    def on_span_end(self, span) -> None:
        self.spans.append((span.stage, dict(span.tags)))


class TestTrainingSpans:
    def test_fit_emits_training_spans(
        self, tpch_ptable, tpch_workload, tpch_queries
    ):
        train, __ = tpch_queries
        system = PS3(tpch_ptable, tpch_workload)
        recorder = _SpanRecorder()
        registry = get_registry()
        before = system.metrics()
        registry.add_profiler(recorder)
        try:
            system.fit(train[:6])
        finally:
            registry.remove_profiler(recorder)
        delta = snapshot_delta(before, system.metrics())
        num_models = TrainingConfig().num_models
        assert delta["counters"]["train.features.calls"] == 1
        assert delta["counters"]["train.answers.calls"] == 1
        assert delta["counters"]["train.gbrt.calls"] == num_models
        assert delta["histograms"]["train.gbrt.wall_seconds"]["count"] == (
            num_models
        )
        gbrt = [tags for stage, tags in recorder.spans if stage == "train.gbrt"]
        assert [tags["model"] for tags in gbrt] == list(range(num_models))
        assert [tags["trees"] for tags in gbrt] == [
            r.num_trees_fitted for r in system.model.regressors
        ]
        queries = {
            stage: tags["queries"]
            for stage, tags in recorder.spans
            if stage in ("train.features", "train.answers")
        }
        assert queries == {"train.features": 6, "train.answers": 6}

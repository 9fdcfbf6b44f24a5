"""Differential suite: level-wise GBRT training == the per-node oracle.

Production grows each tree level by level from one histogram bincount per
depth (:mod:`repro.ml.tree`); the oracle in ``tree_oracle.py`` is the
per-node, depth-first builder it replaced. Training must produce the same
model bit for bit, so every case compares ``json.dumps(to_state())``
bytes — node ids, thresholds, leaf values, gain bookkeeping and the
order of ``gain_by_feature`` keys all included.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_oracle import OracleTreeBuilder, oracle_fit

from repro.core.picker import PickerConfig, PS3Picker
from repro.core.training import train_picker_model
from repro.ml.gbrt import GBRTRegressor
from repro.ml.tree import BinnedMatrix, TreeBuilder
from repro.storage import save_model

KINDS = ("random", "constant_columns", "all_constant", "tied", "zero_gradients")


def make_data(kind: str, n: int, d: int = 12, seed: int = 0):
    """Training inputs of one shape of trouble for the split search."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X[:, 0] - 2.0 * X[:, -1] + rng.normal(size=n)
    if kind == "constant_columns":
        X[:, ::3] = 4.0
    elif kind == "all_constant":
        X[:] = 1.5
    elif kind == "tied":
        # Few distinct feature values and few distinct targets, so both
        # the bins and the gradients tie.
        X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 2, size=n).astype(np.float64)
    elif kind == "zero_gradients":
        y = np.full(n, 2.0)
    return X, y


def assert_same_model(X, y, **params):
    production = GBRTRegressor(**params).fit(X, y)
    oracle = oracle_fit(GBRTRegressor(**params), X, y)
    assert json.dumps(production.to_state()) == json.dumps(oracle.to_state())
    return production


def tree_state(tree) -> str:
    return json.dumps(
        {
            "feature": tree.feature.tolist(),
            "threshold": tree.threshold.tolist(),
            "left": tree.left.tolist(),
            "right": tree.right.tolist(),
            "value": tree.value.tolist(),
            "gain_by_feature": {
                str(k): v for k, v in tree.gain_by_feature.items()
            },
        }
    )


class TestFitMatchesOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 7, 100, 2000])
    def test_row_counts_and_data_shapes(self, n, kind):
        X, y = make_data(kind, n)
        assert_same_model(X, y, n_trees=8, colsample=0.5, seed=n)

    @pytest.mark.parametrize("num_bins", [2, 64, 300])
    @pytest.mark.parametrize("min_samples_leaf", [1, 4, 50])
    @pytest.mark.parametrize("max_depth", [1, 3, 6])
    @pytest.mark.parametrize("colsample", [0.3, 0.5, 1.0])
    def test_hyperparameter_grid(
        self, colsample, max_depth, min_samples_leaf, num_bins
    ):
        X, y = make_data("constant_columns", 400, seed=max_depth)
        X[:, 1] = np.round(X[:, 1])  # a tied, few-valued column
        assert_same_model(
            X,
            y,
            n_trees=4,
            colsample=colsample,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            num_bins=num_bins,
            seed=7,
        )

    def test_all_constant_features_keep_boosting(self):
        # No feature can split, so every tree is a root leaf; boosting
        # still takes its steps rather than stopping at the first tree.
        X, y = make_data("all_constant", 50)
        model = assert_same_model(X, y, n_trees=5)
        assert model.num_trees_fitted == 5
        assert all(tree.feature.tolist() == [-1] for tree in model._trees)

    def test_many_bins_use_wide_bin_storage(self):
        X, y = make_data("random", 3000, d=4)
        model = assert_same_model(X, y, n_trees=3, num_bins=1000)
        assert max(tree.threshold.max() for tree in model._trees) > 255


class TestBuilderMatchesOracle:
    @pytest.mark.parametrize("gradients", ["random", "tied", "all_zero"])
    @pytest.mark.parametrize("n", [1, 7, 100, 2000])
    def test_gradient_shapes(self, n, gradients):
        rng = np.random.default_rng(n)
        binned = rng.integers(0, 8, size=(n, 6)).astype(np.int32)
        binned[:, 2] = 3  # constant column
        grads = {
            "random": rng.normal(size=n),
            "tied": rng.choice([-1.0, 0.5, 2.0], size=n),
            "all_zero": np.zeros(n),
        }[gradients]
        feature_ids = np.array([0, 2, 3, 5])
        for max_depth in (1, 3, 6):
            kwargs = dict(max_depth=max_depth, min_samples_leaf=2)
            production = TreeBuilder(**kwargs).build(binned, grads, feature_ids, 8)
            oracle = OracleTreeBuilder(**kwargs).build(binned, grads, feature_ids, 8)
            assert tree_state(production) == tree_state(oracle)

    def test_leaves_match_predict_binned(self):
        rng = np.random.default_rng(3)
        binned = rng.integers(0, 16, size=(500, 5))
        grads = rng.normal(size=500)
        tree, leaves = TreeBuilder(max_depth=4).grow(
            BinnedMatrix(binned.T, 16), grads, np.arange(5)
        )
        assert np.array_equal(tree.value[leaves], tree.predict_binned(binned))
        assert np.all(tree.feature[leaves] == -1)


@pytest.mark.slow
class TestFitMatchesOracleProperty:
    @given(
        n=st.integers(1, 2500),
        d=st.integers(1, 40),
        kind=st.sampled_from(KINDS),
        colsample=st.sampled_from([0.2, 0.3, 0.5, 0.8, 1.0]),
        max_depth=st.integers(1, 7),
        min_samples_leaf=st.integers(1, 60),
        num_bins=st.sampled_from([2, 3, 16, 64, 257, 300]),
        reg_lambda=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_configurations(
        self,
        n,
        d,
        kind,
        colsample,
        max_depth,
        min_samples_leaf,
        num_bins,
        reg_lambda,
        seed,
    ):
        X, y = make_data(kind, n, d=d, seed=seed)
        assert_same_model(
            X,
            y,
            n_trees=5,
            colsample=colsample,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            num_bins=num_bins,
            reg_lambda=reg_lambda,
            seed=seed,
        )


class TestPickerPinned:
    """The trained picker, end to end, against oracle-trained regressors."""

    def test_saved_model_and_picks_identical(
        self, monkeypatch, tmp_path, tpch_ptable, tpch_queries, trained_ps3
    ):
        train, test = tpch_queries
        builder = trained_ps3.feature_builder
        model, __ = train_picker_model(tpch_ptable, builder, train)
        save_model(model, tmp_path / "production.json")

        oracle_calls = []

        def patched_fit(regressor, X, y):
            oracle_calls.append(X.shape)
            return oracle_fit(regressor, X, y)

        monkeypatch.setattr(GBRTRegressor, "fit", patched_fit)
        oracle_model, __ = train_picker_model(tpch_ptable, builder, train)
        monkeypatch.undo()
        save_model(oracle_model, tmp_path / "oracle.json")

        assert len(oracle_calls) == len(model.regressors)
        assert (tmp_path / "production.json").read_bytes() == (
            tmp_path / "oracle.json"
        ).read_bytes()
        picks = [
            PS3Picker(m, trained_ps3.statistics, PickerConfig(seed=5))
            for m in (model, oracle_model)
        ]
        for query in test[:4]:
            production, oracle = (p.select(query, budget=6) for p in picks)
            assert production.selection == oracle.selection

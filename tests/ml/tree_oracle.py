"""Reference oracle for GBRT training: the per-node, depth-first builder.

This is the tree builder and boosting loop the package shipped before
training grew trees level-wise. Each node is split on its own: the node's
rows are gathered with ``np.ix_``, and two ``np.bincount`` calls build its
gradient and count histograms over every candidate feature, constant ones
included. Nodes are taken from a stack, right child first, which fixes
node ids and the ``gain_by_feature`` accumulation order. The booster bins
row-major and re-evaluates every new tree on the training rows.

The differential suites fit the same data with this oracle and with
:class:`repro.ml.gbrt.GBRTRegressor` and compare the ``to_state()`` JSON
byte for byte. :func:`oracle_fit` has the signature of
``GBRTRegressor.fit``, so it can be patched in as the method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.ml.gbrt import GBRTRegressor, _quantile_bin_edges
from repro.ml.tree import RegressionTree


@dataclass
class _NodeTask:
    node_id: int
    rows: np.ndarray
    depth: int
    grad_sum: float


class OracleTreeBuilder:
    """Grows one tree on (binned features, gradients), node by node."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 4,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-12,
    ) -> None:
        if max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain

    def build(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        feature_ids: np.ndarray,
        num_bins: int,
    ) -> RegressionTree:
        """Fit a tree predicting ``-gradients`` (negative-gradient step)."""
        feature_col, threshold = [], []
        left, right, value = [], [], []
        gains: dict[int, float] = {}

        def new_node() -> int:
            feature_col.append(-1)
            threshold.append(-1)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature_col) - 1

        root = new_node()
        stack = [
            _NodeTask(root, np.arange(binned.shape[0]), 0, float(gradients.sum()))
        ]
        lam = self.reg_lambda
        while stack:
            task = stack.pop()
            rows = task.rows
            n = rows.size
            leaf_value = -task.grad_sum / (n + lam)
            if task.depth >= self.max_depth or n < 2 * self.min_samples_leaf:
                value[task.node_id] = leaf_value
                continue
            split = self._best_split(
                binned, gradients, rows, feature_ids, num_bins, task.grad_sum
            )
            if split is None:
                value[task.node_id] = leaf_value
                continue
            feat, bin_idx, gain = split
            gains[feat] = gains.get(feat, 0.0) + gain
            go_left = binned[rows, feat] <= bin_idx
            left_rows, right_rows = rows[go_left], rows[~go_left]
            feature_col[task.node_id] = feat
            threshold[task.node_id] = bin_idx
            left_id, right_id = new_node(), new_node()
            left[task.node_id] = left_id
            right[task.node_id] = right_id
            grad_left = float(gradients[left_rows].sum())
            stack.append(_NodeTask(left_id, left_rows, task.depth + 1, grad_left))
            stack.append(
                _NodeTask(
                    right_id, right_rows, task.depth + 1, task.grad_sum - grad_left
                )
            )

        return RegressionTree(
            feature=np.asarray(feature_col, np.int32),
            threshold=np.asarray(threshold, np.int32),
            left=np.asarray(left, np.int32),
            right=np.asarray(right, np.int32),
            value=np.asarray(value, np.float64),
            gain_by_feature=gains,
        )

    def _best_split(
        self,
        binned: np.ndarray,
        gradients: np.ndarray,
        rows: np.ndarray,
        feature_ids: np.ndarray,
        num_bins: int,
        grad_sum: float,
    ) -> tuple[int, int, float] | None:
        """Best (feature, bin, gain) for a node, or None if nothing helps."""
        n = rows.size
        lam = self.reg_lambda
        sub = binned[np.ix_(rows, feature_ids)].astype(np.int64)
        offsets = np.arange(feature_ids.size, dtype=np.int64) * num_bins
        flat = (sub + offsets).ravel()
        weights = np.broadcast_to(gradients[rows][:, None], sub.shape).ravel()
        size = feature_ids.size * num_bins
        grad_hist = np.bincount(flat, weights=weights, minlength=size)
        count_hist = np.bincount(flat, minlength=size)
        grad_hist = grad_hist.reshape(feature_ids.size, num_bins)
        count_hist = count_hist.reshape(feature_ids.size, num_bins)

        grad_left = np.cumsum(grad_hist, axis=1)[:, :-1]
        count_left = np.cumsum(count_hist, axis=1)[:, :-1]
        grad_right = grad_sum - grad_left
        count_right = n - count_left
        parent_score = grad_sum**2 / (n + lam)
        gain = (
            grad_left**2 / (count_left + lam)
            + grad_right**2 / (count_right + lam)
            - parent_score
        )
        valid = (count_left >= self.min_samples_leaf) & (
            count_right >= self.min_samples_leaf
        )
        gain = np.where(valid, gain, -np.inf)
        best = int(np.argmax(gain))
        best_feat_pos, best_bin = divmod(best, num_bins - 1)
        best_gain = float(gain[best_feat_pos, best_bin])
        if not np.isfinite(best_gain) or best_gain <= self.min_gain:
            return None
        return int(feature_ids[best_feat_pos]), int(best_bin), best_gain


def oracle_fit(model: GBRTRegressor, X: np.ndarray, y: np.ndarray) -> GBRTRegressor:
    """``GBRTRegressor.fit`` as it was before level-wise training."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ConfigError(f"bad shapes X={X.shape} y={y.shape}")
    n, d = X.shape
    model._num_features = d
    model._bin_edges = [
        _quantile_bin_edges(X[:, j], model.num_bins) for j in range(d)
    ]
    binned = model._bin(X)
    rng = np.random.default_rng(model.seed)
    builder = OracleTreeBuilder(
        max_depth=model.max_depth,
        min_samples_leaf=model.min_samples_leaf,
        reg_lambda=model.reg_lambda,
    )
    model._base = float(y.mean()) if n else 0.0
    prediction = np.full(n, model._base, dtype=np.float64)
    model._trees = []
    n_sub = max(1, int(round(model.colsample * d)))
    for __ in range(model.n_trees):
        gradients = prediction - y  # d/dpred of 0.5*(pred-y)^2
        if np.allclose(gradients, 0.0):
            break
        if n_sub < d:
            feature_ids = np.sort(rng.choice(d, size=n_sub, replace=False))
        else:
            feature_ids = np.arange(d)
        tree = builder.build(binned, gradients, feature_ids, model.num_bins)
        step = tree.predict_binned(binned)
        if not np.any(step):
            break  # no split improved the loss; boosting has converged
        prediction += model.learning_rate * step
        model._trees.append(tree)
    return model

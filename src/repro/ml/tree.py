"""Histogram-based regression trees (the GBRT base learner).

Features are pre-binned into quantile buckets (by the booster); the tree
greedily picks the (feature, bin) split maximizing the XGBoost-style gain
for squared loss with unit hessians:

    gain = GL^2/(nL + lambda) + GR^2/(nR + lambda) - G^2/(n + lambda)

where G are gradient sums.

Trees grow level by level over a :class:`BinnedMatrix`, the training
rows binned once per fit and stored column-major (one contiguous row of
bins per feature). This is the histogram-GBRT layout of LightGBM (Ke et
al., NeurIPS 2017). Each depth builds the gradient histograms of every
node still open at that depth with one weighted ``np.bincount`` over
(node, feature, bin). The bincount is fed in row order, so every bin sums
its rows in ascending row order, exactly as a per-node histogram would.
Gradient histograms are never derived by subtraction, because a float
``parent - child`` is not exact. Count histograms are integers, so
subtraction is exact for them: the root's is computed once per fit, and
below the root one unweighted bincount per depth counts only the smaller
child of each split, its sibling's counts being the parent's minus those.
Features that are constant over the training rows can never split (one
side is always empty) and are skipped.

Node ids and the ``gain_by_feature`` accumulation order are those of a
depth-first walk that expands the right child first. The level-wise
build records the splits under provisional ids and renumbers them in that
walk at the end. :meth:`TreeBuilder.grow` also returns each training
row's leaf, so the booster takes its step without re-evaluating the tree.

Trees store split thresholds in *bin index* space; the booster translates
test inputs through the same bin edges, which keeps prediction exact with
respect to training-time splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


@dataclass
class RegressionTree:
    """A fitted tree as flat parallel arrays (index 0 is the root).

    ``feature[i] == -1`` marks a leaf; ``value`` then holds the leaf
    weight. Internal nodes route rows with ``bin <= threshold`` left.
    """

    feature: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    threshold: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    left: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    right: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    value: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    #: accumulated split gain per feature (importance bookkeeping)
    gain_by_feature: dict[int, float] = field(default_factory=dict)

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Evaluate the tree on pre-binned inputs, vectorized."""
        n = binned.shape[0]
        node = np.zeros(n, dtype=np.int32)
        out = np.zeros(n, dtype=np.float64)
        active = np.arange(n)
        while active.size:
            current = node[active]
            is_leaf = self.feature[current] < 0
            leaf_rows = active[is_leaf]
            out[leaf_rows] = self.value[current[is_leaf]]
            active = active[~is_leaf]
            if not active.size:
                break
            current = node[active]
            feats = self.feature[current]
            go_left = binned[active, feats] <= self.threshold[current]
            node[active] = np.where(
                go_left, self.left[current], self.right[current]
            )
        return out


class BinnedMatrix:
    """Training rows binned once per fit, laid out for level-wise growth.

    ``columns[j]`` holds feature ``j``'s bin for every row, as ``uint8``
    when ``num_bins <= 256`` and wider otherwise. ``varying`` marks the
    features that take more than one bin; ``root_counts[j, b]`` counts the
    rows in bin ``b`` of feature ``j``.
    """

    def __init__(self, columns: np.ndarray, num_bins: int) -> None:
        self.num_bins = num_bins
        self.columns = np.ascontiguousarray(
            columns, dtype=np.min_scalar_type(num_bins - 1)
        )
        num_features, self.num_rows = self.columns.shape
        if self.num_rows:
            self.varying = self.columns.min(axis=1) != self.columns.max(axis=1)
        else:
            self.varying = np.zeros(num_features, dtype=bool)
        offsets = np.arange(num_features, dtype=np.intp)[:, None] * num_bins
        self.root_counts = np.bincount(
            (self.columns + offsets).ravel(), minlength=num_features * num_bins
        ).reshape(num_features, num_bins)


@dataclass
class _Node:
    """A node of the tree being grown, under its provisional id."""

    depth: int
    grad_sum: float
    size: int
    parent: int = -1
    feature: int = -1
    threshold: int = -1
    gain: float = 0.0
    children: tuple[int, int] | None = None
    #: (feature, bin) row counts over the tree's candidate features, set
    #: when the node is searched for a split; its children subtract them
    counts: np.ndarray | None = None


class TreeBuilder:
    """Grows one tree on (binned features, gradients)."""

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
        """Fit a tree predicting ``-gradients`` (negative-gradient step).

        ``binned`` is row-major, ``(rows, features)``; ``feature_ids``
        selects the candidate split features (column subsampling), and
        thresholds refer to global feature indices.
        """
        matrix = BinnedMatrix(np.asarray(binned).T, num_bins)
        return self.grow(matrix, gradients, np.asarray(feature_ids))[0]

    def grow(
        self,
        matrix: BinnedMatrix,
        gradients: np.ndarray,
        feature_ids: np.ndarray,
    ) -> tuple[RegressionTree, np.ndarray]:
        """Fit a tree on a pre-binned matrix; also return each row's leaf.

        The second result holds, per training row, the id of the leaf the
        row lands in, so ``tree.value[leaves]`` is the tree's prediction
        on the training rows.
        """
        feats = feature_ids[matrix.varying[feature_ids]]
        nodes = [_Node(0, float(gradients.sum()), matrix.num_rows)]
        node_of_row = np.zeros(matrix.num_rows, dtype=np.intp)
        # Per (feature, row), shared by every depth: the row's flat
        # (feature, bin) histogram cell, and its gradient as the weight.
        cells = matrix.columns[feats] + (
            np.arange(feats.size, dtype=np.intp)[:, None] * matrix.num_bins
        )
        weights = np.tile(gradients, feats.size)
        # The nodes of the current depth that may split; the rest are
        # leaves. No node may split without a varying candidate feature.
        open_nodes = self._splittable(nodes, [0]) if feats.size else []
        while open_nodes:
            splits = self._level_splits(
                matrix, feats, cells, weights, node_of_row, nodes, open_nodes
            )
            level = []
            for node_id, split in zip(open_nodes, splits):
                node = nodes[node_id]
                if split is None:
                    continue
                node.feature, node.threshold, node.gain = split
                rows = np.flatnonzero(node_of_row == node_id)
                go_left = matrix.columns[node.feature, rows] <= node.threshold
                left_rows, right_rows = rows[go_left], rows[~go_left]
                grad_left = float(gradients[left_rows].sum())
                left_id, right_id = len(nodes), len(nodes) + 1
                depth = node.depth + 1
                nodes.append(_Node(depth, grad_left, left_rows.size, node_id))
                nodes.append(
                    _Node(depth, node.grad_sum - grad_left, right_rows.size, node_id)
                )
                node.children = (left_id, right_id)
                node_of_row[left_rows] = left_id
                node_of_row[right_rows] = right_id
                level += [left_id, right_id]
            open_nodes = self._splittable(nodes, level)
        return self._renumber(nodes, node_of_row)

    def _splittable(self, nodes: list[_Node], candidates: list[int]) -> list[int]:
        return [
            node_id
            for node_id in candidates
            if nodes[node_id].depth < self.max_depth
            and nodes[node_id].size >= 2 * self.min_samples_leaf
        ]

    def _level_splits(
        self,
        matrix: BinnedMatrix,
        feats: np.ndarray,
        cells: np.ndarray,
        weights: np.ndarray,
        node_of_row: np.ndarray,
        nodes: list[_Node],
        open_nodes: list[int],
    ) -> list[tuple[int, int, float] | None]:
        """Best (feature, bin, gain) for every open node of one depth."""
        num_bins = matrix.num_bins
        width = feats.size * num_bins
        k = len(open_nodes)
        if nodes[open_nodes[0]].depth == 0:
            index = cells.ravel()
            count_hist = matrix.root_counts[feats][None]
        else:
            # Rows of nodes that are already leaves go to a discarded
            # slot ``k`` after the open nodes' slots.
            slot = np.full(len(nodes), k, dtype=np.intp)
            slot[open_nodes] = np.arange(k)
            index = (cells + slot[node_of_row] * width).ravel()
            count_hist = self._child_counts(
                cells, node_of_row, nodes, open_nodes, width
            ).reshape(k, feats.size, num_bins)
        grad_hist = np.bincount(
            index, weights=weights, minlength=(k + 1) * width
        )[: k * width].reshape(k, feats.size, num_bins)
        for node_id, counts in zip(open_nodes, count_hist):
            nodes[node_id].counts = counts

        lam = self.reg_lambda
        open_ = [nodes[node_id] for node_id in open_nodes]
        grad_sum = np.array([node.grad_sum for node in open_])[:, None, None]
        size = np.array([node.size for node in open_], np.int64)[:, None, None]
        # Python float arithmetic, as numpy's ``x**2`` may differ in the
        # last bit.
        parent_score = np.array(
            [node.grad_sum**2 / (node.size + lam) for node in open_]
        )[:, None, None]
        grad_left = np.cumsum(grad_hist, axis=2)[:, :, :-1]
        count_left = np.cumsum(count_hist, axis=2)[:, :, :-1]
        grad_right = grad_sum - grad_left
        count_right = size - count_left
        gain = (
            grad_left**2 / (count_left + lam)
            + grad_right**2 / (count_right + lam)
            - parent_score
        )
        valid = (count_left >= self.min_samples_leaf) & (
            count_right >= self.min_samples_leaf
        )
        gain = np.where(valid, gain, -np.inf).reshape(k, -1)
        splits: list[tuple[int, int, float] | None] = []
        for slot_gain, best in zip(gain, gain.argmax(axis=1)):
            best_gain = float(slot_gain[best])
            if not np.isfinite(best_gain) or best_gain <= self.min_gain:
                splits.append(None)
                continue
            feat_pos, best_bin = divmod(int(best), num_bins - 1)
            splits.append((int(feats[feat_pos]), best_bin, best_gain))
        return splits

    @staticmethod
    def _child_counts(
        cells: np.ndarray,
        node_of_row: np.ndarray,
        nodes: list[_Node],
        open_nodes: list[int],
        width: int,
    ) -> np.ndarray:
        """Flat count histograms of the open nodes below the root.

        Only the smaller child of each split parent is counted; its
        sibling's counts are the parent's minus those, which is exact for
        integers.
        """
        parents = sorted({nodes[node_id].parent for node_id in open_nodes})
        counted = [
            min(nodes[parent].children, key=lambda child: nodes[child].size)
            for parent in parents
        ]
        slot = np.full(len(nodes), -1, dtype=np.intp)
        slot[counted] = np.arange(len(counted))
        row_slot = slot[node_of_row]
        rows = np.flatnonzero(row_slot >= 0)
        direct = np.bincount(
            (cells[:, rows] + row_slot[rows] * width).ravel(),
            minlength=len(counted) * width,
        ).reshape(len(counted), width)
        out = []
        for node_id in open_nodes:
            node = nodes[node_id]
            if slot[node_id] >= 0:
                out.append(direct[slot[node_id]])
            else:
                sibling = sum(nodes[node.parent].children) - node_id
                parent_counts = nodes[node.parent].counts.ravel()
                out.append(parent_counts - direct[slot[sibling]])
        return np.stack(out)

    def _renumber(
        self, nodes: list[_Node], node_of_row: np.ndarray
    ) -> tuple[RegressionTree, np.ndarray]:
        """Number nodes depth-first, right child first; accumulate gains.

        Leaves get the regularized mean step; internal nodes keep 0.
        """
        final = np.zeros(len(nodes), dtype=np.intp)
        gains: dict[int, float] = {}
        stack = [0]
        next_id = 1
        while stack:
            node = nodes[stack.pop()]
            if node.children is None:
                continue
            gains[node.feature] = gains.get(node.feature, 0.0) + node.gain
            left_id, right_id = node.children
            final[left_id], final[right_id] = next_id, next_id + 1
            next_id += 2
            stack += [left_id, right_id]
        feature = np.full(len(nodes), -1, np.int32)
        threshold = np.full(len(nodes), -1, np.int32)
        left = np.full(len(nodes), -1, np.int32)
        right = np.full(len(nodes), -1, np.int32)
        value = np.zeros(len(nodes), np.float64)
        for node_id, node in enumerate(nodes):
            at = final[node_id]
            feature[at] = node.feature
            threshold[at] = node.threshold
            if node.children is None:
                value[at] = -node.grad_sum / (node.size + self.reg_lambda)
            else:
                left[at] = final[node.children[0]]
                right[at] = final[node.children[1]]
        tree = RegressionTree(feature, threshold, left, right, value, gains)
        return tree, final[node_of_row]

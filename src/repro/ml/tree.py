"""CART decision trees (classification and regression).

One builder serves both tasks: targets are presented as an ``(n, d)``
matrix ``Y`` (one-hot class indicators for classification, the raw target
column for regression).  Minimizing weighted Gini impurity and minimizing
within-node SSE are both equivalent to *maximizing* ``sum ||S_child||^2 /
n_child`` over the two children, where ``S`` is the columnwise sum of
``Y`` — so the split search is a single vectorized prefix-sum scan per
feature, O(n log n) per node.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array, check_X_y
from repro.ml.packed import PackedModel, PackedTrees, pack_trees

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

_LEAF = -1


class _Tree:
    """Flat-array binary tree produced by :class:`_TreeBuilder`."""

    __slots__ = (
        "feature", "threshold", "left", "right", "value", "n_node_samples", "_pack",
    )

    def __init__(self, feature, threshold, left, right, value, n_node_samples):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.n_node_samples = n_node_samples
        self._pack = None

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def packed(self) -> PackedTrees:
        """This tree as a pack of one, built once: the structure is fixed
        after growth.  Its ``value`` is a copy — boosting rewrites leaf
        values in place, so read ``self.value``."""
        if self._pack is None:
            self._pack = pack_trees([self])
        return self._pack

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of ``X``."""
        return self.packed().apply(X)[0]


class _TreeBuilder:
    """Grows a CART tree on an ``(n, d)`` target matrix."""

    def __init__(
        self,
        *,
        max_depth: int | None,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int | None,
        rng: np.random.Generator,
    ):
        self.max_depth = max_depth if max_depth is not None else np.inf
        self.min_samples_split = max(2, int(min_samples_split))
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.max_features = max_features
        self.rng = rng

    def build(self, X: np.ndarray, Y: np.ndarray) -> tuple[_Tree, np.ndarray]:
        """Return the grown tree and gain-based feature importances."""
        n, p = X.shape
        self._X, self._Y = X, Y
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[np.ndarray] = []
        self._n_samples: list[int] = []
        self._importances = np.zeros(p, dtype=float)
        self._grow(np.arange(n), depth=0)
        tree = _Tree(
            feature=np.asarray(self._feature, dtype=np.int64),
            threshold=np.asarray(self._threshold, dtype=float),
            left=np.asarray(self._left, dtype=np.int64),
            right=np.asarray(self._right, dtype=np.int64),
            value=np.vstack(self._value),
            n_node_samples=np.asarray(self._n_samples, dtype=np.int64),
        )
        total = self._importances.sum()
        importances = self._importances / total if total > 0 else self._importances
        del self._X, self._Y
        return tree, importances

    # ------------------------------------------------------------------

    def _new_node(self, idx: np.ndarray) -> int:
        node_id = len(self._feature)
        self._feature.append(_LEAF)
        self._threshold.append(np.nan)
        self._left.append(_LEAF)
        self._right.append(_LEAF)
        self._value.append(self._Y[idx].mean(axis=0))
        self._n_samples.append(idx.shape[0])
        return node_id

    def _grow(self, idx: np.ndarray, depth: int) -> int:
        node_id = self._new_node(idx)
        n = idx.shape[0]
        if depth >= self.max_depth or n < self.min_samples_split:
            return node_id

        split = self._best_split(idx)
        if split is None:
            return node_id
        feature, threshold, gain, left_mask = split
        self._feature[node_id] = feature
        self._threshold[node_id] = threshold
        self._importances[feature] += gain
        self._left[node_id] = self._grow(idx[left_mask], depth + 1)
        self._right[node_id] = self._grow(idx[~left_mask], depth + 1)
        return node_id

    def _candidate_features(self, p: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= p:
            return np.arange(p)
        return self.rng.choice(p, size=self.max_features, replace=False)

    def _best_split(self, idx: np.ndarray):
        """Best (feature, threshold, gain, left_mask) or None.

        Score of a split = ||S_L||^2/n_L + ||S_R||^2/n_R; gain is scored
        against the unsplit node's ||S||^2/n (equivalently SSE reduction or
        Gini decrease, scaled by node size).
        """
        X, Y = self._X[idx], self._Y[idx]
        n = idx.shape[0]
        total = Y.sum(axis=0)
        parent_score = float(total @ total) / n
        min_leaf = self.min_samples_leaf

        best_gain = 1e-12
        best = None
        for feature in self._candidate_features(X.shape[1]):
            col = X[:, feature]
            order = np.argsort(col, kind="stable")
            xs = col[order]
            if xs[0] == xs[-1]:
                continue
            csum = np.cumsum(Y[order], axis=0)
            n_left = np.arange(1, n)
            # Valid cut after position i only where the value changes.
            valid = xs[:-1] < xs[1:]
            if min_leaf > 1:
                valid &= (n_left >= min_leaf) & (n - n_left >= min_leaf)
            if not valid.any():
                continue
            s_left = csum[:-1]
            s_right = total[None, :] - s_left
            score = (
                np.einsum("ij,ij->i", s_left, s_left) / n_left
                + np.einsum("ij,ij->i", s_right, s_right) / (n - n_left)
            )
            score[~valid] = -np.inf
            pos = int(np.argmax(score))
            gain = float(score[pos]) - parent_score
            if gain > best_gain:
                threshold = 0.5 * (xs[pos] + xs[pos + 1])
                best_gain = gain
                best = (int(feature), float(threshold), gain, col <= threshold)
        return best


class _BaseDecisionTree(PackedModel):
    """Shared hyperparameters and fitted-tree plumbing."""

    _fitted_attr = "tree_"

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

    def _resolve_max_features(self, p: int) -> int | None:
        mf = self.max_features
        if mf is None:
            return None
        if mf == "sqrt":
            return max(1, int(np.sqrt(p)))
        if mf == "log2":
            return max(1, int(np.log2(p)))
        mf = int(mf)
        if mf < 1:
            raise ValueError(f"max_features must be >= 1, got {mf}")
        return min(mf, p)

    def _build(self, X: np.ndarray, Y: np.ndarray) -> None:
        builder = _TreeBuilder(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._resolve_max_features(X.shape[1]),
            rng=np.random.default_rng(self.seed),
        )
        self.tree_, self.feature_importances_ = builder.build(X, Y)
        self.n_features_ = X.shape[1]

    def _packed(self) -> PackedTrees:
        return self.tree_.packed()

    def _values(self, pack: PackedTrees, X: np.ndarray) -> np.ndarray:
        # The pack's value is a copy; boosting rewrites tree_.value in place.
        return self.tree_.value[pack.apply(X)[0]]

    def apply(self, X) -> np.ndarray:
        """Leaf index for every sample."""
        self._check_fitted("tree_")
        return self.tree_.apply(check_array(X))

    @property
    def n_leaves_(self) -> int:
        """Number of leaf nodes."""
        self._check_fitted("tree_")
        return int(np.sum(self.tree_.feature == _LEAF))

    @property
    def depth_(self) -> int:
        """Maximum depth of the fitted tree (root = 0)."""
        self._check_fitted("tree_")
        return self.tree_.packed().depth


class DecisionTreeRegressor(_BaseDecisionTree):
    """CART regressor minimizing within-leaf squared error (DTR)."""

    def fit(self, X, y) -> "DecisionTreeRegressor":
        """Grow the tree on (X, y)."""
        X, y = check_X_y(X, y)
        self._build(X, np.asarray(y, dtype=float).reshape(-1, 1))
        return self

    def _fold(self, pack: PackedTrees, X: np.ndarray) -> np.ndarray:
        """Predicted target per sample."""
        return self._values(pack, X)[:, 0]


class DecisionTreeClassifier(_BaseDecisionTree):
    """CART classifier minimizing Gini impurity (DTC)."""

    def fit(self, X, y) -> "DecisionTreeClassifier":
        """Grow the tree on (X, y); y may hold arbitrary hashable labels."""
        X, y = check_X_y(X, y)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        onehot = np.zeros((y_enc.shape[0], self.classes_.shape[0]), dtype=float)
        onehot[np.arange(y_enc.shape[0]), y_enc] = 1.0
        self._build(X, onehot)
        return self

    def _fold(self, pack: PackedTrees, X: np.ndarray) -> np.ndarray:
        """Most probable class per sample."""
        return self.classes_[np.argmax(self._values(pack, X), axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        """Class-probability matrix ``(n, n_classes)``."""
        self._check_fitted("tree_")
        return self._values(self._packed(), check_array(X))

"""Gradient-boosted decision trees (GBRT / GBDT).

Regression boosts least-squares residuals.  Binary classification boosts
the logistic loss with Newton leaf updates: each stage fits a regression
tree to the negative gradient ``y - p``, then replaces every leaf value
with ``sum(g) / sum(p (1 - p))`` over the samples it captures — the
standard second-order (LogitBoost-style) step that makes small ensembles
accurate.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array, check_X_y
from repro.ml.packed import PackedModel, PackedTrees, pack_trees
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import derive_seed

__all__ = ["GradientBoostingRegressor", "GradientBoostingClassifier"]


class _BaseBoosting(PackedModel):
    """Shared boosting hyperparameters and staged-tree plumbing."""

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.08,
        max_depth: int = 3,
        min_samples_leaf: int = 3,
        subsample: float = 1.0,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not (0.0 < learning_rate <= 1.0):
            raise ValueError("learning_rate must lie in (0, 1]")
        if not (0.0 < subsample <= 1.0):
            raise ValueError("subsample must lie in (0, 1]")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.subsample = float(subsample)
        self.seed = seed

    def _stage_tree(self, t: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            seed=derive_seed(self.seed, "gbdt-tree", t),
        )

    def _stage_indices(self, n: int, t: int) -> np.ndarray:
        if self.subsample >= 1.0:
            return np.arange(n)
        rng = np.random.default_rng(derive_seed(self.seed, "gbdt-subsample", t))
        size = max(1, int(round(self.subsample * n)))
        return rng.choice(n, size=size, replace=False)

    def _packed(self) -> PackedTrees:
        # Derived evaluation cache: built lazily after fit() or
        # deserialization (which restores estimators_ but not the pack),
        # never serialized (get_params/estimator_to_dict skip it).  Its
        # leaves hold lr * value: the stage loop's multiply, done once.
        pack = getattr(self, "_packed_", None)
        if pack is None or pack.n_trees != len(self.estimators_):
            trees = [tree.tree_ for tree in self.estimators_]
            pack = pack_trees(trees, [self.learning_rate * t.value for t in trees])
            self._packed_ = pack
        return pack

    def _raw(self, pack: PackedTrees, X: np.ndarray) -> np.ndarray:
        return pack.boosted_predict(X, self.init_)


class GradientBoostingRegressor(_BaseBoosting):
    """Least-squares gradient boosting (the paper's GBRT)."""

    def fit(self, X, y) -> "GradientBoostingRegressor":
        """Fit ``n_estimators`` stages of residual trees."""
        X, y = check_X_y(X, y)
        y = np.asarray(y, dtype=float)
        self.init_ = float(y.mean())
        self._packed_ = None
        self.estimators_ = []
        raw = np.full(y.shape[0], self.init_, dtype=float)
        self.train_losses_ = []
        for t in range(self.n_estimators):
            idx = self._stage_indices(y.shape[0], t)
            residual = y - raw
            tree = self._stage_tree(t).fit(X[idx], residual[idx])
            raw += self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
            self.train_losses_.append(float(np.mean((y - raw) ** 2)))
        return self

    _fold = _BaseBoosting._raw  # the boosted prediction itself


class GradientBoostingClassifier(_BaseBoosting):
    """Binary logistic gradient boosting with Newton leaf updates (GBDT)."""

    def fit(self, X, y) -> "GradientBoostingClassifier":
        """Fit on binary labels (any two distinct values)."""
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        if self.classes_.shape[0] != 2:
            raise ValueError(
                f"GradientBoostingClassifier is binary; got "
                f"{self.classes_.shape[0]} classes"
            )
        y01 = (y == self.classes_[1]).astype(float)
        prior = float(np.clip(y01.mean(), 1e-6, 1.0 - 1e-6))
        self.init_ = float(np.log(prior / (1.0 - prior)))
        self._packed_ = None
        self.estimators_ = []
        raw = np.full(y01.shape[0], self.init_, dtype=float)
        self.train_losses_ = []
        for t in range(self.n_estimators):
            p = 1.0 / (1.0 + np.exp(-raw))
            grad = y01 - p
            hess = np.maximum(p * (1.0 - p), 1e-9)
            idx = self._stage_indices(y01.shape[0], t)
            tree = self._stage_tree(t).fit(X[idx], grad[idx])
            # Newton step: replace leaf means with sum(g)/sum(h) per leaf,
            # computed over the full training set for stability.  The
            # per-leaf sums come from one bincount pass over the leaf
            # assignment instead of a boolean-mask loop per leaf.
            leaves = tree.apply(X)
            n_nodes = tree.tree_.n_nodes
            counts = np.bincount(leaves, minlength=n_nodes)
            sum_g = np.bincount(leaves, weights=grad, minlength=n_nodes)
            sum_h = np.bincount(leaves, weights=hess, minlength=n_nodes)
            visited = counts > 0
            tree.tree_.value[visited, 0] = sum_g[visited] / sum_h[visited]
            raw += self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
            p = 1.0 / (1.0 + np.exp(-raw))
            eps = 1e-12
            self.train_losses_.append(
                float(-np.mean(y01 * np.log(p + eps) + (1 - y01) * np.log(1 - p + eps)))
            )
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw log-odds scores."""
        self._check_fitted("estimators_")
        return self._raw(self._packed(), check_array(X))

    def predict_proba(self, X) -> np.ndarray:
        """Class-probability matrix ``(n, 2)`` ordered as ``classes_``."""
        p1 = 1.0 / (1.0 + np.exp(-self.decision_function(X)))
        return np.column_stack([1.0 - p1, p1])

    def _fold(self, pack: PackedTrees, X: np.ndarray) -> np.ndarray:
        """Most probable class."""
        p1 = 1.0 / (1.0 + np.exp(-self._raw(pack, X)))
        return np.where(p1 >= 0.5, self.classes_[1], self.classes_[0])

"""Random forests (bagged CART ensembles with feature subsampling)."""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array, check_X_y
from repro.ml.packed import PackedModel, PackedTrees, pack_trees
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.utils.rng import derive_seed

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class _BaseForest(PackedModel):
    """Shared bootstrap/ensemble plumbing."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self.seed = seed

    def _tree_factory(self, seed: int):
        raise NotImplementedError

    def _fit_ensemble(self, X: np.ndarray, y: np.ndarray) -> None:
        self._packed_ = None
        self.estimators_ = []
        n = X.shape[0]
        for t in range(self.n_estimators):
            tree_seed = derive_seed(self.seed, "forest-tree", t)
            tree = self._tree_factory(tree_seed)
            if self.bootstrap:
                rng = np.random.default_rng(derive_seed(self.seed, "bootstrap", t))
                idx = rng.integers(0, n, size=n)
                tree.fit(X[idx], y[idx])
            else:
                tree.fit(X, y)
            self.estimators_.append(tree)
        importances = np.mean(
            [tree.feature_importances_ for tree in self.estimators_], axis=0
        )
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances

    def _pack(self) -> PackedTrees:
        raise NotImplementedError

    def _packed(self) -> PackedTrees:
        # Derived evaluation cache: built lazily after fit() or
        # deserialization (which restores estimators_ but not the pack),
        # never serialized (get_params/estimator_to_dict skip it).
        pack = getattr(self, "_packed_", None)
        if pack is None or pack.n_trees != len(self.estimators_):
            pack = self._pack()
            self._packed_ = pack
        return pack


class RandomForestRegressor(_BaseForest):
    """Bagged regression trees; prediction is the ensemble mean (RF)."""

    def _tree_factory(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
        )

    def fit(self, X, y) -> "RandomForestRegressor":
        """Fit the ensemble on (X, y)."""
        X, y = check_X_y(X, y)
        self._fit_ensemble(X, np.asarray(y, dtype=float))
        return self

    def _pack(self) -> PackedTrees:
        return pack_trees([tree.tree_ for tree in self.estimators_])

    def _fold(self, pack: PackedTrees, X: np.ndarray) -> np.ndarray:
        """Mean prediction over trees."""
        return pack.mean_predict(X)


class RandomForestClassifier(_BaseForest):
    """Bagged classification trees; prediction averages class probabilities."""

    def _tree_factory(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=seed,
        )

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit the ensemble on (X, y)."""
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        self._fit_ensemble(X, y)
        return self

    def _pack(self) -> PackedTrees:
        # A bootstrap resample can miss a class, so tree value matrices
        # may cover different classes_ subsets; project each into the
        # global class order so the pack shares one value array.  The
        # injected zero columns add exact 0.0 to the (non-negative)
        # probability sums, matching the old sparse accumulation bitwise.
        values = []
        for tree in self.estimators_:
            v = tree.tree_.value
            padded = np.zeros((v.shape[0], self.classes_.shape[0]), dtype=float)
            padded[:, np.searchsorted(self.classes_, tree.classes_)] = v
            values.append(padded)
        return pack_trees([tree.tree_ for tree in self.estimators_], values=values)

    def _proba(self, pack: PackedTrees, X: np.ndarray) -> np.ndarray:
        return pack.sum_values(X) / self.n_estimators

    def _fold(self, pack: PackedTrees, X: np.ndarray) -> np.ndarray:
        """Soft-voted most probable class."""
        return self.classes_[np.argmax(self._proba(pack, X), axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        """Soft-voted class-probability matrix over the full class set."""
        self._check_fitted("estimators_")
        return self._proba(self._packed(), check_array(X))

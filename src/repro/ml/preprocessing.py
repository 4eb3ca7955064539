"""Feature preprocessing."""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, as_matrix, check_array

__all__ = ["StandardScaler"]


class StandardScaler(BaseEstimator):
    """Standardize features to zero mean and unit variance.

    Constant features are left centered but unscaled (divisor 1), so
    transforming never produces NaN.  Required by the kernel machines;
    harmless for trees.
    """

    def fit(self, X) -> "StandardScaler":
        """Learn per-feature mean and standard deviation."""
        X = check_array(X)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def check(self, X) -> np.ndarray:
        """``X`` as a matrix of the fitted width: :meth:`transform`'s shape
        checks, without its finiteness scan."""
        self._check_fitted("mean_")
        X = as_matrix(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"X has {X.shape[1]} features, scaler was fitted with "
                f"{self.mean_.shape[0]}"
            )
        return X

    def transform(self, X) -> np.ndarray:
        """Apply the learned standardization."""
        return (check_array(self.check(X)) - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        """Fit and transform in one pass."""
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        """Undo the standardization."""
        self._check_fitted("mean_")
        X = check_array(X)
        return X * self.scale_ + self.mean_

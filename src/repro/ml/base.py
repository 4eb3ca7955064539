"""Estimator base class and input validation."""

from __future__ import annotations

import numpy as np

__all__ = ["BaseEstimator", "as_matrix", "check_array", "check_X_y"]


def as_matrix(X, *, name: str = "X") -> np.ndarray:
    """``X`` as a non-empty 2-D float64 matrix (a 1-D ``X`` is one row):
    :func:`check_array` without its finiteness scan."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={X.ndim}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {X.shape}")
    return X


def check_array(X, *, name: str = "X") -> np.ndarray:
    """Validate and convert a 2-D feature matrix to float64."""
    X = as_matrix(X, name=name)
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains NaN or infinity")
    return X


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and aligned target vector."""
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got ndim={y.ndim}")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if y.dtype.kind in "fc" and not np.isfinite(y.astype(float)).all():
        raise ValueError("y contains NaN or infinity")
    return X, y


class BaseEstimator:
    """Minimal estimator protocol: constructor params + fitted state.

    Subclasses set all hyperparameters in ``__init__`` and learn state only
    in ``fit``.  ``get_params`` enables cloning with modified parameters.
    """

    def get_params(self) -> dict:
        """Constructor parameters as a dict (non-private attributes only)."""
        return {
            k: v
            for k, v in vars(self).items()
            if not k.startswith("_") and not k.endswith("_")
        }

    def clone(self, **overrides) -> "BaseEstimator":
        """Fresh unfitted copy with optionally overridden hyperparameters."""
        params = self.get_params()
        params.update(overrides)
        return type(self)(**params)

    def compiled(self, mean, scale):
        """``predict`` of rows standardized as ``(x - mean) / scale``, as one
        callable over raw rows of the right shape.  ``predict`` validates
        the standardized rows (a non-finite raw cell stays non-finite, and
        an overflowing one becomes infinite).  Tree models override it to
        skip the standardization altogether."""
        return lambda X: self.predict((X - mean) / scale)

    def _check_fitted(self, attr: str) -> None:
        if not hasattr(self, attr):
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"

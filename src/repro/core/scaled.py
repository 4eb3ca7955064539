"""The shell the CM, RM and delay model share: a scaler in front of an estimator.

Training standardizes the feature rows and fits the estimator on them.
Prediction checks the raw rows' shape — 2-D, the fitted width, with
:meth:`repro.ml.preprocessing.StandardScaler.check` raising what
``transform`` raises — and calls the estimator's *compiled* form
(:meth:`repro.ml.base.BaseEstimator.compiled`), which scans the values
once.  Tree models compile to their own fold over a pack whose
thresholds live in raw feature space, behind one range test that
rejects exactly the rows whose standardization is not finite, so
serving runs no standardization at all; any other estimator compiles to
``predict`` of the standardized rows, whose own input check rejects the
same rows.  Either way a non-finite row raises ``ValueError("X contains
NaN or infinity")``, as ``predict(transform(X))`` did.  The compiled callable is a
derived cache like a tree model's pack: built on the first prediction
after ``fit`` or ``from_dict``, dropped by ``fit``, never serialized.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator
from repro.ml.preprocessing import StandardScaler

__all__ = ["ScaledModel"]


class ScaledModel:
    """An estimator fitted on standardized features, served on raw ones."""

    def __init__(self, estimator: BaseEstimator):
        self.estimator = estimator
        self._scaler = StandardScaler()
        self._compiled_ = None

    def _fit(self, X: np.ndarray, y: np.ndarray):
        self.estimator.fit(self._scaler.fit_transform(X), y)
        self.n_features_ = X.shape[1]
        self._compiled_ = None
        return self

    def _predict(self, X) -> np.ndarray:
        """The estimator's prediction for raw feature rows ``X``."""
        if not hasattr(self, "n_features_"):
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        X = self._scaler.check(X)
        if self._compiled_ is None:
            self._compiled_ = self.estimator.compiled(
                self._scaler.mean_, self._scaler.scale_
            )
        return self._compiled_(X)

"""GAugur's regression model (RM, Eq. 4).

Predicts the exact degradation ratio a game suffers under a colocation.
Wraps any regressor from :mod:`repro.ml` (GBRT by default — the paper's
most accurate choice) behind standardization; the feature rows come from
:class:`~repro.core.predictor.InterferencePredictor`, the prediction API.
"""

from __future__ import annotations

import numpy as np

from repro.core.scaled import ScaledModel
from repro.core.training import SampleSet
from repro.ml.base import BaseEstimator
from repro.ml.gbdt import GradientBoostingRegressor

__all__ = ["GAugurRegressor"]


class GAugurRegressor(ScaledModel):
    """The RM: colocation features -> degradation ratio.

    Parameters
    ----------
    estimator:
        Any fit/predict regressor; defaults to gradient-boosted trees with
        the paper's best-performing configuration.
    """

    def __init__(self, estimator: BaseEstimator | None = None):
        super().__init__(
            estimator
            if estimator is not None
            else GradientBoostingRegressor(
                n_estimators=300, learning_rate=0.06, max_depth=4
            )
        )

    def fit(self, samples: SampleSet) -> "GAugurRegressor":
        """Train on an RM sample set from :func:`repro.core.training.build_dataset`."""
        return self._fit(samples.X, samples.y)

    def predict_from_features(self, X) -> np.ndarray:
        """Predict degradation ratios for raw RM feature rows."""
        return np.clip(self._predict(X), 0.01, None)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the fitted model to plain types."""
        from repro.ml.serialization import estimator_to_dict

        if not hasattr(self, "n_features_"):
            raise RuntimeError("cannot serialize an unfitted GAugurRegressor")
        return {
            "estimator": estimator_to_dict(self.estimator),
            "scaler": estimator_to_dict(self._scaler),
            "n_features": self.n_features_,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GAugurRegressor":
        """Inverse of :meth:`to_dict`."""
        from repro.ml.serialization import estimator_from_dict

        model = cls(estimator=estimator_from_dict(data["estimator"]))
        model._scaler = estimator_from_dict(data["scaler"])
        model.n_features_ = int(data["n_features"])
        return model

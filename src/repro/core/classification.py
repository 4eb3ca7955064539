"""GAugur's classification model (CM, Eq. 3).

Predicts whether a game meets the QoS frame-rate floor under a colocation.
The paper keeps the CM alongside the RM because direct classification beats
thresholding regression output (Section 3.4); GBDT is the default learner.
The feature rows come from
:class:`~repro.core.predictor.InterferencePredictor`, the prediction API.
"""

from __future__ import annotations

import numpy as np

from repro.core.scaled import ScaledModel
from repro.core.training import SampleSet
from repro.ml.base import BaseEstimator
from repro.ml.gbdt import GradientBoostingClassifier

__all__ = ["GAugurClassifier"]


class GAugurClassifier(ScaledModel):
    """The CM: colocation features + QoS floor -> feasible / infeasible.

    Parameters
    ----------
    estimator:
        Any fit/predict classifier; defaults to gradient-boosted trees with
        Newton leaf updates (the paper's GBDT, its best performer).
    """

    def __init__(self, estimator: BaseEstimator | None = None):
        super().__init__(
            estimator
            if estimator is not None
            else GradientBoostingClassifier(n_estimators=300, learning_rate=0.06)
        )

    def fit(self, samples: SampleSet) -> "GAugurClassifier":
        """Train on a CM sample set from :func:`repro.core.training.build_dataset`."""
        if set(np.unique(samples.y)) - {0, 1}:
            raise ValueError("CM labels must be binary 0/1")
        return self._fit(samples.X, samples.y)

    def predict_from_features(self, X) -> np.ndarray:
        """Predict 0/1 QoS outcomes for raw CM feature rows."""
        return np.asarray(self._predict(X), dtype=int)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the fitted model to plain types."""
        from repro.ml.serialization import estimator_to_dict

        if not hasattr(self, "n_features_"):
            raise RuntimeError("cannot serialize an unfitted GAugurClassifier")
        return {
            "estimator": estimator_to_dict(self.estimator),
            "scaler": estimator_to_dict(self._scaler),
            "n_features": self.n_features_,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GAugurClassifier":
        """Inverse of :meth:`to_dict`."""
        from repro.ml.serialization import estimator_from_dict

        model = cls(estimator=estimator_from_dict(data["estimator"]))
        model._scaler = estimator_from_dict(data["scaler"])
        model.n_features_ = int(data["n_features"])
        return model

"""GAugur's regression model (RM, Eq. 4).

Predicts the exact degradation ratio a game suffers under a colocation.
Wraps any regressor from :mod:`repro.ml` (GBRT by default — the paper's
most accurate choice) behind feature construction and standardization.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.features import rm_feature_vector
from repro.core.profiles import GameProfile
from repro.core.scaled import ScaledModel
from repro.core.training import SampleSet
from repro.games.resolution import Resolution
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

    def predict(
        self,
        target: GameProfile,
        co_runners: Sequence[tuple[GameProfile, Resolution]],
    ) -> float:
        """Predicted degradation of ``target`` colocated with ``co_runners``.

        Each co-runner is (profile, resolution); intensities are resolved
        at the co-runner's resolution via the Observation 7/8 laws.
        """
        if not co_runners:
            raise ValueError("predict requires at least one co-runner")
        co = [p.intensity_at(res).values for p, res in co_runners]
        x = rm_feature_vector(target.sensitivity_vector(), co)
        return float(self.predict_from_features(x.reshape(1, -1))[0])

    def predict_fps(
        self,
        target: GameProfile,
        target_resolution: Resolution,
        co_runners: Sequence[tuple[GameProfile, Resolution]],
    ) -> float:
        """Predicted colocated FPS: degradation x solo FPS at the resolution."""
        degradation = self.predict(target, co_runners)
        return degradation * target.solo_fps_at(target_resolution)

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
